//! Crash-safe campaign journal.
//!
//! A campaign (a `cs-bench` suite, a `cs-smith` fuzz sweep, a `cs-chaos`
//! fault sweep) is a set of independent tasks. The journal makes the set
//! *resumable*: as each task completes, one self-describing record is
//! appended — through the [`ArtifactStore`] — to an append-only
//! `cs-journal-v1` stream, so a campaign killed mid-flight can be
//! restarted with `--resume <dir>`, replay the journal, skip every
//! completed task, re-enqueue the in-flight ones into the sweep executor,
//! and produce a final report byte-identical to an uninterrupted run.
//! This is the paper's own thesis applied to the host runtime: track the
//! side effects of speculative (interruptible) work so the system can
//! recover to a consistent committed state (CleanupSpec, MICRO'19).
//!
//! ## Record framing
//!
//! One record per line: `{"crc":"<16-hex-fnv>","body":<body-json>}` where
//! the CRC is FNV-1a-64 over the exact body bytes. A torn tail line (the
//! usual SIGKILL artifact) or a bit-flipped line fails its CRC and is
//! dropped — i.e. treated as in-flight work to redo — rather than
//! corrupting the replay. The first record is a campaign *header* binding
//! the journal to a digest of the campaign configuration; resuming with a
//! different configuration is refused instead of silently mixing results.
//! Task records carry the task id, a digest of the payload, and the
//! payload itself (a canonical JSON document the campaign knows how to
//! replay, e.g. a `cs-snap-v1` report or a fuzz verdict).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use cleanupspec::snap::fnv1a64;
use cleanupspec_obs::{JsonValue, JsonWriter};

use crate::store::{ArtifactStore, StoreError};

/// Journal format identifier, stored in every header record.
pub const FORMAT: &str = "cs-journal-v1";

/// File name of the journal inside a campaign directory.
pub const FILE: &str = "journal.csj";

/// Frames a record body with its CRC line prefix.
fn frame(body: &str) -> String {
    format!(
        "{{\"crc\":\"{:016x}\",\"body\":{body}}}",
        fnv1a64(body.as_bytes())
    )
}

/// Strips and verifies the CRC framing; `None` for torn or corrupt lines.
fn unframe(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"crc\":\"")?;
    let crc_hex = rest.get(..16)?;
    let body = rest
        .get(16..)?
        .strip_prefix("\",\"body\":")?
        .strip_suffix('}')?;
    let crc = u64::from_str_radix(crc_hex, 16).ok()?;
    (fnv1a64(body.as_bytes()) == crc).then_some(body)
}

/// Identity of a campaign: what it is plus a canonical rendering of the
/// knobs that change its *results*. Execution-only knobs (thread count,
/// ring capacity) are deliberately excluded so a resume may use a
/// different parallelism than the interrupted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Campaign family, e.g. `cs-bench-suite` or `cs-smith`.
    pub campaign: String,
    /// Canonical result-determining configuration string.
    pub config: String,
}

impl JournalHeader {
    /// Digest binding a journal to this campaign identity.
    pub fn digest(&self) -> String {
        format!(
            "{:016x}",
            fnv1a64(format!("{}\n{}", self.campaign, self.config).as_bytes())
        )
    }

    fn body(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object(None)
            .string("format", FORMAT)
            .string("kind", "header")
            .string("campaign", &self.campaign)
            .string("config", &self.config)
            .string("digest", &self.digest())
            .close_object();
        w.finish()
    }
}

/// Renders a task record body: the id, the payload digest (`vd`) and the
/// payload itself, spliced in verbatim so replay can slice it back out.
fn task_body(id: &str, payload: &str) -> String {
    let mut w = JsonWriter::new();
    w.open_object(None)
        .string("kind", "task")
        .string("id", id)
        .string("vd", &format!("{:016x}", fnv1a64(payload.as_bytes())))
        .close_object();
    let head = w.finish();
    let head = head.strip_suffix('}').expect("object body");
    format!("{head}, \"payload\": {payload}}}")
}

/// What a journal's text holds for one campaign.
#[derive(Default)]
struct Replay {
    /// Completed task payloads by id (first record wins). Empty unless
    /// an intact header was seen.
    completed: BTreeMap<String, String>,
    /// Torn, corrupt or unrecognised lines skipped.
    dropped: u64,
    /// Whether an intact header for this campaign was found.
    header: bool,
}

/// Replays a journal's lines for the campaign `header`. `Err` carries
/// the foreign header's digest when the journal belongs to a different
/// campaign. A torn or corrupt line, or a task record whose payload
/// digest does not match, is dropped: its task is in-flight work to redo.
fn replay(text: &str, header: &JournalHeader) -> Result<Replay, String> {
    let mut r = Replay::default();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let Some(body) = unframe(line) else {
            r.dropped += 1;
            continue;
        };
        let Ok(v) = JsonValue::parse(body) else {
            r.dropped += 1;
            continue;
        };
        match v.get("kind").and_then(JsonValue::as_str) {
            Some("header") => {
                let digest = v.get("digest").and_then(JsonValue::as_str);
                if digest != Some(header.digest().as_str()) {
                    return Err(digest.unwrap_or("<missing>").to_string());
                }
                r.header = true;
            }
            Some("task") => {
                let (Some(id), Some(vd)) = (
                    v.get("id").and_then(JsonValue::as_str),
                    v.get("vd").and_then(JsonValue::as_str),
                ) else {
                    r.dropped += 1;
                    continue;
                };
                // Recover the payload losslessly by slicing it out of the
                // body text: everything after `"payload": ` minus the
                // record's single closing brace. The digest check below
                // catches any mis-slice.
                let Some(payload) = body
                    .split_once("\"payload\": ")
                    .and_then(|(_, p)| p.strip_suffix('}'))
                else {
                    r.dropped += 1;
                    continue;
                };
                if format!("{:016x}", fnv1a64(payload.as_bytes())) != vd {
                    r.dropped += 1;
                    continue;
                }
                r.completed
                    .entry(id.to_string())
                    .or_insert_with(|| payload.to_string());
            }
            _ => r.dropped += 1,
        }
    }
    if !r.header {
        r.completed.clear();
    }
    Ok(r)
}

struct JournalState {
    completed: BTreeMap<String, String>,
    replayed: u64,
    dropped: u64,
    /// Set by the first failed append, so a full disk warns once rather
    /// than once per task.
    append_warned: bool,
}

/// An open campaign journal (see module docs). Thread-safe: sweep workers
/// record completions concurrently through one shared instance.
pub struct Journal {
    store: Arc<dyn ArtifactStore>,
    state: Mutex<JournalState>,
}

impl Journal {
    /// Opens (or creates) the journal in `store` for the campaign
    /// identified by `header`.
    ///
    /// - No journal yet → a fresh one is started (header appended).
    /// - Existing journal with a matching header digest → completed task
    ///   records are replayed; corrupt/torn lines are dropped and their
    ///   tasks treated as in-flight.
    /// - Existing journal for a *different* campaign → `Err` (refusing to
    ///   mix results is the caller's cue to pick another directory).
    /// - Unreadable journal → one-line warning, treated as fresh.
    pub fn open(store: Arc<dyn ArtifactStore>, header: &JournalHeader) -> Result<Journal, String> {
        let mut r = Replay::default();
        match store.get(FILE) {
            Err(StoreError::NotFound(_)) => {}
            Err(e) => {
                eprintln!("warning: cannot read campaign journal ({e}); starting fresh");
            }
            Ok(bytes) => {
                r = replay(&String::from_utf8_lossy(&bytes), header).map_err(|digest| {
                    format!(
                        "journal in {} belongs to a different campaign \
                         (digest {digest:?}, expected {}); refusing to resume",
                        store.label(),
                        header.digest()
                    )
                })?;
                if !r.header && r.dropped > 0 {
                    eprintln!(
                        "warning: campaign journal in {} has no intact header \
                         ({} corrupt line(s) dropped); starting fresh",
                        store.label(),
                        r.dropped
                    );
                    r.dropped = 0;
                }
            }
        }
        if !r.header {
            if let Err(e) = store.append_line(FILE, &frame(&header.body())) {
                eprintln!("warning: cannot start campaign journal: {e}");
            }
        }
        Ok(Journal {
            store,
            state: Mutex::new(JournalState {
                replayed: r.completed.len() as u64,
                completed: r.completed,
                dropped: r.dropped,
                append_warned: false,
            }),
        })
    }

    /// The replayed payload for a completed task, if any.
    pub fn completed(&self, id: &str) -> Option<String> {
        self.state
            .lock()
            .expect("journal lock")
            .completed
            .get(id)
            .cloned()
    }

    /// Records a completed task. `payload` must be a single-line JSON
    /// document. Duplicate records for an id are ignored (first wins), so
    /// replayed tasks can be re-recorded harmlessly. A failed append
    /// warns once per journal; the task's result still reaches the
    /// caller, it just will not replay.
    pub fn record(&self, id: &str, payload: &str) {
        debug_assert!(!payload.contains('\n'), "journal payloads are single-line");
        {
            let mut st = self.state.lock().expect("journal lock");
            if st.completed.contains_key(id) {
                return;
            }
            st.completed.insert(id.to_string(), payload.to_string());
        }
        let line = frame(&task_body(id, payload));
        if let Err(e) = self.store.append_line(FILE, &line) {
            let mut st = self.state.lock().expect("journal lock");
            if !std::mem::replace(&mut st.append_warned, true) {
                eprintln!("warning: cannot append to campaign journal: {e}");
            }
        }
    }

    /// Number of completed tasks replayed when the journal was opened.
    pub fn replayed(&self) -> u64 {
        self.state.lock().expect("journal lock").replayed
    }

    /// Number of corrupt/torn lines dropped during replay.
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("journal lock").dropped
    }
}

/// Read-only CLI preflight for `--resume <dir>`: validates that the
/// directory's journal (if any) belongs to the campaign described by
/// `header` and returns how many completed tasks [`Journal::open`] will
/// replay from it. CLIs exit with a clear diagnostic on `Err` instead of
/// clobbering foreign data.
pub fn check_resume(dir: &Path, header: &JournalHeader) -> Result<usize, String> {
    let path = dir.join(FILE);
    let bytes = match std::fs::read(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        Ok(b) => b,
    };
    let r = replay(&String::from_utf8_lossy(&bytes), header).map_err(|_| {
        format!(
            "{} belongs to a different campaign (config changed?); \
             use a fresh directory or rerun with the original flags",
            path.display()
        )
    })?;
    Ok(r.completed.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DirStore;
    use std::path::PathBuf;

    fn header() -> JournalHeader {
        JournalHeader {
            campaign: "test".to_string(),
            config: "a=1 b=2".to_string(),
        }
    }

    /// A fresh, empty campaign directory and a store over it.
    fn dir_store(tag: &str) -> (PathBuf, Arc<dyn ArtifactStore>) {
        let dir = std::env::temp_dir().join(format!("cs-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store: Arc<dyn ArtifactStore> = Arc::new(DirStore::new(&dir));
        (dir, store)
    }

    #[test]
    fn frame_roundtrip_and_corruption_detection() {
        let body = "{\"kind\": \"task\", \"id\": \"x\"}";
        let line = frame(body);
        assert_eq!(unframe(&line), Some(body));
        // Flip a byte in the body → CRC mismatch.
        let evil = line.replace("task", "tosk");
        assert_eq!(unframe(&evil), None);
        // Torn tail → no match.
        assert_eq!(unframe(&line[..line.len() - 3]), None);
        assert_eq!(unframe(""), None);
    }

    #[test]
    fn fresh_journal_records_and_replays() {
        let (dir, store) = dir_store("fresh");
        let j = Journal::open(Arc::clone(&store), &header()).unwrap();
        assert_eq!(j.replayed(), 0);
        j.record("t1", "{\"v\": 1}");
        j.record("t2", "{\"v\": 2}");
        j.record("t1", "{\"v\": 999}"); // duplicate: first wins
        drop(j);
        let j2 = Journal::open(store, &header()).unwrap();
        assert_eq!(j2.replayed(), 2);
        assert_eq!(j2.completed("t1").as_deref(), Some("{\"v\": 1}"));
        assert_eq!(j2.completed("t2").as_deref(), Some("{\"v\": 2}"));
        assert_eq!(j2.completed("t3"), None);
        assert_eq!(j2.dropped(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let (dir, store) = dir_store("torn");
        let j = Journal::open(Arc::clone(&store), &header()).unwrap();
        j.record("t1", "{\"v\": 1}");
        j.record("t2", "{\"v\": 2}");
        drop(j);
        // Simulate SIGKILL mid-append: truncate the last line.
        let mut bytes = store.get(FILE).unwrap();
        bytes.truncate(bytes.len() - 10);
        std::fs::write(dir.join(FILE), &bytes).unwrap();
        let j2 = Journal::open(store, &header()).unwrap();
        assert_eq!(j2.replayed(), 1, "t2's torn record treated as in-flight");
        assert!(j2.completed("t1").is_some());
        assert!(j2.completed("t2").is_none());
        assert_eq!(j2.dropped(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_campaign_is_refused() {
        let (dir, store) = dir_store("mismatch");
        let j = Journal::open(Arc::clone(&store), &header()).unwrap();
        j.record("t1", "{\"v\": 1}");
        drop(j);
        let other = JournalHeader {
            campaign: "test".to_string(),
            config: "a=1 b=3".to_string(),
        };
        let err = match Journal::open(store, &other) {
            Err(e) => e,
            Ok(_) => panic!("mismatched campaign must be refused"),
        };
        assert!(err.contains("different campaign"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_with_nested_objects_survives_replay() {
        let (dir, store) = dir_store("nested");
        let j = Journal::open(Arc::clone(&store), &header()).unwrap();
        let payload = "{\"a\": {\"b\": [1, 2, {\"c\": \"x}y\"}]}, \"d\": 4}";
        j.record("deep", payload);
        drop(j);
        let j2 = Journal::open(store, &header()).unwrap();
        assert_eq!(j2.completed("deep").as_deref(), Some(payload));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_resume_counts_and_refuses() {
        let (dir, store) = dir_store("preflight");
        assert_eq!(check_resume(&dir, &header()), Ok(0), "no journal yet");
        let j = Journal::open(store, &header()).unwrap();
        j.record("t1", "{\"v\": 1}");
        j.record("t2", "{\"v\": 2}");
        drop(j);
        assert_eq!(check_resume(&dir, &header()), Ok(2));
        let other = JournalHeader {
            campaign: "other".to_string(),
            config: String::new(),
        };
        let err = check_resume(&dir, &other).unwrap_err();
        assert!(
            err.contains("different campaign (config changed?)"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn preflight_counts_exactly_what_open_replays() {
        // A good record, its duplicate, a CRC-valid record whose payload
        // digest is wrong, and a torn tail: only the first replays.
        let (dir, store) = dir_store("one-parser");
        let good = task_body("t1", "{\"v\": 1}");
        let wrong_vd = task_body("t2", "{\"v\": 2}").replace(
            &format!("{:016x}", fnv1a64(b"{\"v\": 2}")),
            "0000000000000000",
        );
        let torn = frame(&task_body("t3", "{\"v\": 3}"));
        let text = [
            frame(&header().body()),
            frame(&good),
            frame(&good),
            frame(&wrong_vd),
            torn[..torn.len() - 7].to_string(),
        ]
        .join("\n");
        std::fs::write(dir.join(FILE), text).unwrap();
        let preflight = check_resume(&dir, &header()).unwrap();
        let j = Journal::open(store, &header()).unwrap();
        assert_eq!(preflight, 1);
        assert_eq!(j.replayed(), 1);
        assert_eq!(j.completed("t2"), None, "wrong payload digest replayed");
        assert_eq!(j.dropped(), 2, "wrong-digest record and torn tail");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
