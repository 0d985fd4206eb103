//! Artifact storage for campaign outputs.
//!
//! Every durable by-product of a campaign — checkpoint cache entries,
//! fuzz/chaos repro directories, BENCH documents, the campaign journal —
//! reaches disk through one [`ArtifactStore`] trait, backed by
//! [`DirStore`]:
//!
//! - **Atomicity** — `put` goes through [`cleanupspec_obs::atomic_write`]
//!   (tmp name unique to the writer, write, fsync, rename), so readers
//!   never observe a half-written artifact and parallel writers of one
//!   name never share a tmp file.
//! - **Integrity** — every `put` leaves an FNV-1a-64 sidecar
//!   (`<name>.fnv`); `get` verifies it and reports a mismatch as
//!   [`StoreError::Corrupt`] instead of serving the bytes.
//!
//! A write either reaches disk or returns [`StoreError::Io`]; there is no
//! retry and no in-memory fallback. Campaigns take seconds, so a failed
//! write costs at most a rerun, and each caller decides whether it is
//! fatal (see docs/DURABILITY.md).

use std::io::{ErrorKind, Write as _};
use std::path::PathBuf;

use cleanupspec::snap::fnv1a64;
use cleanupspec_obs::atomic_write;

/// Errors surfaced by [`ArtifactStore`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named artifact does not exist.
    NotFound(String),
    /// The artifact exists but failed its integrity check; its bytes are
    /// not served. The next `put` of the name replaces it.
    Corrupt {
        /// Store-relative artifact name.
        name: String,
        /// Human-readable mismatch description.
        detail: String,
    },
    /// A host I/O error.
    Io {
        /// Store-relative artifact name.
        name: String,
        /// Human-readable error description.
        detail: String,
    },
}

impl StoreError {
    fn io(name: &str, e: std::io::Error) -> StoreError {
        StoreError::Io {
            name: name.to_string(),
            detail: e.to_string(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(name) => write!(f, "artifact not found: {name}"),
            StoreError::Corrupt { name, detail } => {
                write!(f, "artifact corrupt: {name}: {detail}")
            }
            StoreError::Io { name, detail } => write!(f, "artifact I/O error: {name}: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A named blob store for campaign artifacts.
///
/// Names are store-relative paths (`/`-separated, may contain
/// subdirectories, e.g. `seed-0x2-clean/repro.txt`). Implementations must
/// be safe to share across sweep worker threads.
pub trait ArtifactStore: Send + Sync {
    /// Human-readable location of the store (for diagnostics).
    fn label(&self) -> String;

    /// Durably writes `bytes` under `name`, atomically replacing any
    /// previous version. Parent directories are created on demand.
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Reads the artifact back, verifying its integrity sidecar when one
    /// is present.
    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError>;

    /// Appends `line` plus a trailing newline to the artifact, creating
    /// it if absent, and syncs it. Used for the append-only campaign
    /// journal.
    fn append_line(&self, name: &str, line: &str) -> Result<(), StoreError>;

    /// Whether an artifact with this name currently exists.
    fn exists(&self, name: &str) -> bool;

    /// Whether writes outlive the process: always `true`. Kept only
    /// because perfbench's smith-campaign store wrapper overrides it.
    fn persistent(&self) -> bool {
        true
    }

    /// Does nothing: a corrupt artifact is reported, never moved. Kept
    /// only because perfbench's smith-campaign store wrapper overrides it.
    fn quarantine(&self, _name: &str, _reason: &str) {}
}

/// Counters perfbench's smith-campaign reports. Both are always 0: the
/// store neither retries nor falls back to memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Retried operations (always 0).
    pub retries: u64,
    /// Writes kept only in memory (always 0).
    pub degraded_writes: u64,
}

/// Suffix of the integrity sidecar written next to every artifact.
pub const SIDECAR_SUFFIX: &str = ".fnv";

/// The directory-backed [`ArtifactStore`] (see module docs).
pub struct DirStore {
    root: PathBuf,
}

impl DirStore {
    /// Creates a store rooted at `root`. The directory is created on
    /// first write.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DirStore { root: root.into() }
    }

    /// Counters for perfbench (see [`StoreStats`]).
    pub fn stats(&self) -> StoreStats {
        StoreStats::default()
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn sidecar_of(&self, name: &str) -> PathBuf {
        self.path_of(&format!("{name}{SIDECAR_SUFFIX}"))
    }

    /// Creates `path`'s parent directory chain.
    fn ensure_parent(path: &std::path::Path) -> std::io::Result<()> {
        match path.parent() {
            Some(parent) => std::fs::create_dir_all(parent),
            None => Ok(()),
        }
    }
}

impl ArtifactStore for DirStore {
    fn label(&self) -> String {
        self.root.display().to_string()
    }

    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let path = self.path_of(name);
        Self::ensure_parent(&path)
            .and_then(|()| atomic_write(&path, bytes))
            .map_err(|e| StoreError::io(name, e))?;
        // The payload is durable; now leave its checksum sidecar. A
        // sidecar failure must not fail the put, but a *stale* sidecar
        // would make the fresh payload read as corrupt, so remove any
        // previous one if the new one cannot be written.
        let sidecar = self.sidecar_of(name);
        let digest = format!("{:016x}", fnv1a64(bytes));
        if atomic_write(&sidecar, digest.as_bytes()).is_err() {
            let _ = std::fs::remove_file(&sidecar);
        }
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let payload = std::fs::read(self.path_of(name)).map_err(|e| {
            if e.kind() == ErrorKind::NotFound {
                StoreError::NotFound(name.to_string())
            } else {
                StoreError::io(name, e)
            }
        })?;
        // Verify the sidecar when one is present. A missing (or
        // unreadable) sidecar is tolerated: journals and artifacts
        // written by other tools legitimately have none.
        if let Ok(sidecar) = std::fs::read(self.sidecar_of(name)) {
            let want = String::from_utf8_lossy(&sidecar).trim().to_string();
            let got = format!("{:016x}", fnv1a64(&payload));
            if want.len() == 16 && want != got {
                return Err(StoreError::Corrupt {
                    name: name.to_string(),
                    detail: format!("checksum mismatch: sidecar {want}, payload {got}"),
                });
            }
        }
        Ok(payload)
    }

    fn append_line(&self, name: &str, line: &str) -> Result<(), StoreError> {
        let path = self.path_of(name);
        // One `write_all` of the framed line: O_APPEND keeps concurrent
        // appenders' lines whole.
        let framed = format!("{line}\n");
        Self::ensure_parent(&path)
            .and_then(|()| {
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(&path)?;
                f.write_all(framed.as_bytes())?;
                f.sync_all()
            })
            .map_err(|e| StoreError::io(name, e))
    }

    fn exists(&self, name: &str) -> bool {
        self.path_of(name).exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cs-store-{tag}-{}-{:x}",
            std::process::id(),
            fnv1a64(tag.as_bytes())
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mk tmpdir");
        d
    }

    #[test]
    fn put_get_roundtrip_with_sidecar() {
        let d = tmpdir("roundtrip");
        let s = DirStore::new(&d);
        s.put("a/b.json", b"{\"x\": 1}").unwrap();
        assert_eq!(s.get("a/b.json").unwrap(), b"{\"x\": 1}");
        assert!(d.join("a/b.json.fnv").exists(), "sidecar written");
        assert!(s.exists("a/b.json"));
        assert!(s.persistent());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_payload_is_reported_not_served() {
        let d = tmpdir("corrupt");
        let s = DirStore::new(&d);
        s.put("r.json", b"good bytes").unwrap();
        std::fs::write(d.join("r.json"), b"evil bytes").unwrap();
        match s.get("r.json") {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The next put of the name replaces the corrupt artifact.
        s.put("r.json", b"fresh bytes").unwrap();
        assert_eq!(s.get("r.json").unwrap(), b"fresh bytes");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_sidecar_is_tolerated() {
        let d = tmpdir("nosidecar");
        std::fs::write(d.join("legacy.json"), b"old artifact").unwrap();
        let s = DirStore::new(&d);
        assert_eq!(s.get("legacy.json").unwrap(), b"old artifact");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_tmp_file_next_to_a_complete_artifact_is_ignored() {
        // A writer killed between write and rename leaves its tmp file;
        // readers only ever see the last complete artifact.
        let d = tmpdir("torn-tmp");
        let s = DirStore::new(&d);
        s.put("a.json", b"complete artifact").unwrap();
        std::fs::write(d.join(".a.json.tmp-4242-7"), b"compl").unwrap();
        assert_eq!(s.get("a.json").unwrap(), b"complete artifact");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn unwritable_root_returns_io_errors() {
        // Running as root makes chmod-based readonly dirs useless, so
        // force the failure structurally: the "directory" is a file.
        let d = tmpdir("blocked");
        let root = d.join("blocked");
        std::fs::write(&root, b"i am a file, not a directory").unwrap();
        let s = DirStore::new(root.join("sub"));
        assert!(matches!(
            s.put("x.json", b"payload"),
            Err(StoreError::Io { .. })
        ));
        assert!(matches!(
            s.append_line("j.csj", "line-1"),
            Err(StoreError::Io { .. })
        ));
        assert!(!s.exists("x.json"));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn parallel_stores_on_one_dir_never_clobber_each_other() {
        // Parallel checkpoint writers store the same key with the same
        // bytes, each through its own store over the cache directory.
        let d = tmpdir("parallel");
        let stores = [DirStore::new(&d), DirStore::new(&d)];
        let bytes: &[u8] = b"{\"report\": \"identical across writers\"}";
        std::thread::scope(|scope| {
            for s in &stores {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for _ in 0..100 {
                            s.put("ckpt/k.snap", bytes).unwrap();
                        }
                    });
                }
            }
        });
        assert_eq!(stores[0].get("ckpt/k.snap").unwrap(), bytes);
        assert_eq!(stores[1].get("ckpt/k.snap").unwrap(), bytes);
        for entry in std::fs::read_dir(d.join("ckpt")).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            assert!(!name.contains(".tmp-"), "tmp file left behind: {name}");
        }
        let _ = std::fs::remove_dir_all(&d);
    }
}
