//! Crash-safe file replacement shared by every file-producing writer in
//! the workspace (the trace and metrics sinks here, the campaign
//! artifact store in `cleanupspec-bench`).
//!
//! `std::fs::write` straight onto the target path leaves a torn,
//! half-written file behind if the process dies mid-write — and the
//! trace/metrics writers run on `Drop` paths, which is exactly when a
//! crashing process fires them. This helper writes to a tmp name unique
//! to this writer (pid + process-wide counter, so two writers of the
//! same path never clobber each other's tmp file), fsyncs, then renames
//! into place: readers only ever observe the previous complete file or
//! the new complete one.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Atomically replaces `path` with `bytes` (unique tmp + fsync + rename).
/// The parent directory must exist. On error the tmp file is removed and
/// `path` is untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let leaf = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    let unique = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{leaf}.tmp-{}-{unique}", std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_content_and_leaves_no_tmp_litter() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cs-atomicio-{}.txt", std::process::id()));
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            assert!(
                !name.contains("cs-atomicio") || !name.contains(".tmp-"),
                "tmp file left behind: {name}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_write_keeps_the_old_file() {
        // Writing under a path whose parent is a regular file must fail
        // without touching anything else.
        let dir = std::env::temp_dir();
        let blocker = dir.join(format!("cs-atomicio-block-{}", std::process::id()));
        std::fs::write(&blocker, b"not a dir").unwrap();
        let target = blocker.join("child.txt");
        assert!(atomic_write(&target, b"payload").is_err());
        assert_eq!(std::fs::read(&blocker).unwrap(), b"not a dir");
        let _ = std::fs::remove_file(&blocker);
    }
}
