//! The engine side of the persistent result store: job-aware keys, the record payload
//! format, and the shared handle batches consult.
//!
//! `athena-store` itself knows nothing about jobs — it stores opaque payloads under
//! `(identity, variant)` keys. This module supplies the two halves the engine needs on
//! top:
//!
//! * **Keys** — [`record_key`] pairs [`Job::identity_hash`] (which facets make a cell
//!   *the same cell*) with [`variant_hash`] (the facet that is excluded from the
//!   identity but still changes the output: the telemetry request).
//!   Two jobs with equal keys produce bit-identical outputs, so a stored record can stand
//!   in for a simulation.
//! * **Payloads** — [`StoreHandle::encode`] / [`StoreHandle::decode`] wrap the lossless
//!   [`JobOutput`] codec ([`crate::codec`]) in a small self-describing envelope
//!   ([`crate::report::RESULT_RECORD_SCHEMA`]) carrying the cell's experiment, label and
//!   hashes, so `results query` can browse a store without re-deriving jobs
//!   ([`RecordEnvelope`]).
//!
//! Failure discipline: decode and store errors inside a batch are **loud** — the engine
//! panics with the store directory and cell label rather than silently re-simulating over
//! a store that lied. A store you cannot trust is a store you must look at.

use std::cell::RefCell;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use athena_store::{RecordKey, ResultStore, StoreError, StorePolicy};

use crate::codec::{fill, hex, read_envelope, Codec};
use crate::job::{Job, JobOutput};
use crate::json::{Json, JsonParseError, JsonReader, JsonWriter};
use crate::report::RESULT_RECORD_SCHEMA;
use crate::seed::SeedHasher;

/// The output-variant hash of a job: the facet [`Job::identity_hash`] deliberately
/// excludes but that still affects the produced [`JobOutput`]: the telemetry request (it
/// decides whether a timeline is attached and how wide its windows are). Cached results
/// are keyed by `(identity, variant)` so a telemetry run never shadows a plain run of the
/// same cell.
pub fn variant_hash(job: &Job) -> u64 {
    let mut h = SeedHasher::new();
    match job.telemetry {
        None => h.write_str("none"),
        Some(t) => {
            h.write_str("window");
            h.write_u64(t.window_instructions);
        }
    }
    h.finish()
}

/// The store key of a job: `(identity_hash, variant_hash)`.
pub fn record_key(job: &Job) -> RecordKey {
    RecordKey {
        identity: job.identity_hash(),
        variant: variant_hash(job),
    }
}

/// A shared, thread-safe handle to one open [`ResultStore`] plus the [`StorePolicy`]
/// governing how batches use it. Cloning shares the same open store (and its single
/// writer lock).
#[derive(Clone)]
pub struct StoreHandle {
    dir: PathBuf,
    policy: StorePolicy,
    store: Arc<Mutex<ResultStore>>,
}

impl fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreHandle")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl PartialEq for StoreHandle {
    fn eq(&self, other: &Self) -> bool {
        self.dir == other.dir && self.policy == other.policy
    }
}

impl Eq for StoreHandle {}

impl StoreHandle {
    /// Opens the store in `dir` under `policy`. [`StorePolicy::ReadOnly`] never writes, so
    /// it opens read-only and takes no lock.
    pub fn open(dir: impl Into<PathBuf>, policy: StorePolicy) -> Result<Self, StoreError> {
        let dir = dir.into();
        let store = ResultStore::open(&dir, !policy.writes())?;
        Ok(Self {
            dir,
            policy,
            store: Arc::new(Mutex::new(store)),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The policy batches run under.
    pub fn policy(&self) -> StorePolicy {
        self.policy
    }

    /// Locks and returns the underlying store (for stats/gc/verify-style maintenance).
    pub fn lock(&self) -> MutexGuard<'_, ResultStore> {
        self.store.lock().expect("result store mutex poisoned")
    }

    /// Serialises one finished cell into a store record payload: the bytes
    /// [`StoreHandle::write_record`] writes.
    pub fn encode(job: &Job, output: &JobOutput) -> Vec<u8> {
        let mut w = JsonWriter::new();
        Self::write_record(&mut w, job, output);
        w.into_bytes()
    }

    /// Writes one finished cell's record: the self-describing envelope the store persists
    /// and a distributed worker embeds in its `RESULT` frame.
    pub fn write_record(w: &mut JsonWriter, job: &Job, output: &JobOutput) {
        Self::write_keyed(w, job, record_key(job), output);
    }

    fn write_keyed(w: &mut JsonWriter, job: &Job, key: RecordKey, output: &JobOutput) {
        RESULT_RECORD_SCHEMA.begin_document(w);
        w.key("experiment");
        w.string(&job.experiment);
        w.key("label");
        w.string(&job.label());
        w.key("workload");
        w.string(job.cell.name());
        w.key("coordinator");
        w.string(job.coordinator.name());
        for (name, value) in [
            ("identity", key.identity),
            ("variant", key.variant),
            ("seed", job.seed),
            ("instructions", job.instructions),
        ] {
            w.key(name);
            w.hex(value);
        }
        w.key("output");
        output.write(w);
        w.end_object();
    }

    /// One finished cell's record as a tree: the document [`StoreHandle::write_record`]
    /// writes.
    pub fn record_doc(job: &Job, output: &JobOutput) -> Json {
        let mut w = JsonWriter::new();
        Self::write_record(&mut w, job, output);
        Json::parse(w.as_str()).expect("the writer emits JSON the reader accepts")
    }

    /// Reconstructs the exact [`JobOutput`] from a record payload written by
    /// [`StoreHandle::encode`], in one pass over the bytes. Errors come in a fixed order
    /// whatever the field order: a payload that is not UTF-8, then one that is not JSON
    /// anywhere, then a schema mismatch, then a missing or undecodable output.
    pub fn decode(payload: &[u8]) -> Result<JobOutput, String> {
        let text =
            std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
        let mut r = JsonReader::new(text);
        let record = RecordFields::read(&mut r)
            .and_then(|record| r.finish().map(|()| record))
            .map_err(|e| format!("payload is not JSON: {e}"))?;
        if !record.declares_schema() {
            return Err(format!(
                "payload does not declare schema '{}'",
                RESULT_RECORD_SCHEMA.id()
            ));
        }
        record.output.ok_or("payload has no 'output' field")?
    }

    /// Looks up a cached output for `job`, verifying the record checksum and decoding the
    /// payload. `Ok(None)` means the cell must be simulated.
    ///
    /// # Panics
    ///
    /// Panics when the store is corrupt or a record fails to decode — a lying cache must
    /// never be silently recomputed over (see the module docs).
    pub fn fetch(&self, job: &Job) -> Option<JobOutput> {
        if !self.policy.reads() {
            return None;
        }
        let key = record_key(job);
        let payload = self.lock().get(key).unwrap_or_else(|e| {
            panic!(
                "result store {}: lookup for cell '{}' (record {:016x}.{:016x}) failed: {e}",
                self.dir.display(),
                job.label(),
                key.identity,
                key.variant
            )
        })?;
        let output = Self::decode(&payload).unwrap_or_else(|e| {
            panic!(
                "result store {}: record {:016x}.{:016x} for cell '{}' does not decode: {e}",
                self.dir.display(),
                key.identity,
                key.variant,
                job.label()
            )
        });
        Some(output)
    }

    /// Appends one finished cell's result.
    ///
    /// # Panics
    ///
    /// Panics when the append fails (full disk, store gone) — a partially persisted sweep
    /// must fail where it happened, not on some later warm run.
    pub fn persist(&self, job: &Job, output: &JobOutput) {
        if !self.policy.writes() {
            return;
        }
        thread_local! {
            static WRITER: RefCell<JsonWriter> = RefCell::new(JsonWriter::new());
        }
        let key = record_key(job);
        WRITER.with_borrow_mut(|w| {
            w.clear();
            Self::write_keyed(w, job, key, output);
            self.lock()
                .put(key, w.as_str().as_bytes())
                .unwrap_or_else(|e| {
                    panic!(
                        "result store {}: persisting cell '{}' (record {:016x}.{:016x}) \
                         failed: {e}",
                        self.dir.display(),
                        job.label(),
                        key.identity,
                        key.variant
                    )
                });
        });
    }
}

/// The fields of a record envelope that a reader checks, each from its first occurrence
/// (`None` when absent) with its decode error kept, so callers report faults in their own
/// order.
pub(crate) struct RecordFields {
    /// Whether the `"schema"` value is [`RESULT_RECORD_SCHEMA`]'s id.
    pub schema: Option<Result<bool, String>>,
    /// The `"identity"` hash.
    pub identity: Option<Result<u64, String>>,
    /// The `"variant"` hash.
    pub variant: Option<Result<u64, String>>,
    /// The decoded `"output"`.
    pub output: Option<Result<JobOutput, String>>,
}

impl RecordFields {
    /// Reads the envelope object at `r`; only a syntax error fails the read.
    pub fn read(r: &mut JsonReader<'_>) -> Result<Self, JsonParseError> {
        let mut record = RecordFields {
            schema: None,
            identity: None,
            variant: None,
            output: None,
        };
        read_envelope(r, |key, r| match key {
            "schema" => fill(&mut record.schema, r, |r| {
                RESULT_RECORD_SCHEMA.read_matches(r)
            }),
            "identity" => fill(&mut record.identity, r, hex::read),
            "variant" => fill(&mut record.variant, r, hex::read),
            "output" => fill(&mut record.output, r, JobOutput::read),
            _ => r.skip_value(),
        })?;
        Ok(record)
    }

    /// Whether the envelope declares [`RESULT_RECORD_SCHEMA`].
    pub fn declares_schema(&self) -> bool {
        self.schema == Some(Ok(true))
    }
}

/// The self-describing half of a store record: the cell fields
/// [`StoreHandle::write_record`] writes around the output, for browsing a store without
/// decoding outputs (`results query`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordEnvelope {
    /// The cell's experiment.
    pub experiment: String,
    /// The cell's label.
    pub label: String,
    /// The cell's workload (or multi-core mix) name.
    pub workload: String,
    /// The cell's coordinator name.
    pub coordinator: String,
    /// The cell's instruction budget.
    pub instructions: u64,
    /// The cell's derived seed.
    pub seed: u64,
}

impl RecordEnvelope {
    /// Reads the envelope of a record payload, skipping its `output` (which is still
    /// syntax-checked). Fails on a payload that is not UTF-8 or not JSON, and names the
    /// first missing or mistyped field.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text =
            std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
        let mut r = JsonReader::new(text);
        let [mut experiment, mut label, mut workload, mut coordinator] = [None, None, None, None];
        let [mut instructions, mut seed] = [None, None];
        read_envelope(&mut r, |key, r| match key {
            "experiment" => fill(&mut experiment, r, String::read),
            "label" => fill(&mut label, r, String::read),
            "workload" => fill(&mut workload, r, String::read),
            "coordinator" => fill(&mut coordinator, r, String::read),
            "instructions" => fill(&mut instructions, r, hex::read),
            "seed" => fill(&mut seed, r, hex::read),
            _ => r.skip_value(),
        })
        .and_then(|()| r.finish())
        .map_err(|e| format!("payload is not JSON: {e}"))?;
        let string = |slot: Option<Result<String, String>>, name: &str| {
            slot.and_then(Result::ok)
                .ok_or(format!("no '{name}' field"))
        };
        let hex = |slot: Option<Result<u64, String>>, name: &str| {
            slot.and_then(Result::ok)
                .ok_or(format!("no hex '{name}' field"))
        };
        Ok(Self {
            experiment: string(experiment, "experiment")?,
            label: string(label, "label")?,
            workload: string(workload, "workload")?,
            coordinator: string(coordinator, "coordinator")?,
            instructions: hex(instructions, "instructions")?,
            seed: hex(seed, "seed")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::kinds::{CoordinatorKind, OcpKind, PrefetcherKind, SystemConfig};
    use athena_workloads::{all_workloads, mixes};

    fn cd1() -> SystemConfig {
        SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet)
    }

    fn one_job() -> Job {
        Job::single(
            "store-test",
            all_workloads()[0].clone(),
            cd1(),
            CoordinatorKind::Athena,
            6_000,
        )
    }

    #[test]
    fn variant_separates_telemetry_but_not_identity() {
        let base = one_job();
        assert_eq!(record_key(&base), record_key(&one_job()));
        let observed = one_job().with_telemetry(4096);
        assert_eq!(base.identity_hash(), observed.identity_hash());
        assert_ne!(variant_hash(&base), variant_hash(&observed));
        assert_ne!(
            variant_hash(&observed),
            variant_hash(&one_job().with_telemetry(8192))
        );
    }

    #[test]
    fn encode_decode_round_trips_single_core_outputs() {
        let job = one_job().with_telemetry(2048);
        let output = job.run();
        let payload = StoreHandle::encode(&job, &output);
        assert_eq!(StoreHandle::decode(&payload).unwrap(), output);
    }

    #[test]
    fn record_doc_serialises_to_the_encoded_payload() {
        let job = one_job().with_telemetry(2048);
        let output = job.run();
        let payload = StoreHandle::encode(&job, &output);
        let doc = StoreHandle::record_doc(&job, &output);
        assert_eq!(doc.to_string().into_bytes(), payload);
        // A parse and re-serialise round trip of the payload adds nothing either, so a
        // `RESULT` frame embedding the document carries the bytes it always did.
        let reparsed = Json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        assert_eq!(reparsed.to_string().into_bytes(), payload);
    }

    #[test]
    fn encode_decode_round_trips_multicore_outputs() {
        let job = Job::multicore(
            "store-test",
            mixes(2, 1, 7)[0].clone(),
            cd1(),
            CoordinatorKind::Athena,
            4_000,
        );
        let output = job.run();
        let payload = StoreHandle::encode(&job, &output);
        assert_eq!(StoreHandle::decode(&payload).unwrap(), output);
    }

    #[test]
    fn envelopes_read_the_cell_fields_and_name_a_missing_one() {
        let job = one_job();
        let payload = StoreHandle::encode(&job, &job.run());
        let envelope = RecordEnvelope::decode(&payload).unwrap();
        assert_eq!(envelope.experiment, job.experiment);
        assert_eq!(envelope.label, job.label());
        assert_eq!(envelope.workload, job.cell.name());
        assert_eq!(envelope.coordinator, job.coordinator.name());
        assert_eq!(envelope.instructions, job.instructions);
        assert_eq!(envelope.seed, job.seed);

        let text = std::str::from_utf8(&payload).unwrap();
        let no_seed = text.replacen("\"seed\"", "\"sead\"", 1);
        assert_eq!(
            RecordEnvelope::decode(no_seed.as_bytes()),
            Err("no hex 'seed' field".to_string())
        );
        let numeric_label = text.replacen(&format!("\"{}\"", job.label()), "7", 1);
        assert_eq!(
            RecordEnvelope::decode(numeric_label.as_bytes()),
            Err("no 'label' field".to_string())
        );
        assert!(RecordEnvelope::decode(b"")
            .unwrap_err()
            .contains("not JSON"));
        assert!(RecordEnvelope::decode(&payload[..payload.len() - 1])
            .unwrap_err()
            .contains("not JSON"));
    }

    #[test]
    fn decode_rejects_foreign_documents() {
        assert!(StoreHandle::decode(b"not json").is_err());
        assert!(StoreHandle::decode(b"{\"schema\":\"athena-tune-v1\"}").is_err());
        assert!(StoreHandle::decode(
            format!("{{\"schema\":\"{}\"}}", RESULT_RECORD_SCHEMA.id()).as_bytes()
        )
        .is_err());
    }

    #[test]
    fn handle_round_trips_through_a_store_directory() {
        let dir =
            std::env::temp_dir().join(format!("athena-engine-store-{}-handle", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = one_job();
        let output = job.run();
        {
            let handle = StoreHandle::open(&dir, StorePolicy::ReadWrite).unwrap();
            assert_eq!(handle.fetch(&job), None);
            handle.persist(&job, &output);
            assert_eq!(handle.fetch(&job), Some(output.clone()));
        }
        let reread = StoreHandle::open(&dir, StorePolicy::ReadOnly).unwrap();
        assert_eq!(reread.fetch(&job), Some(output.clone()));
        // Refresh never reads: the stored record is there, but it is not served.
        let refresh = StoreHandle::open(&dir, StorePolicy::Refresh).unwrap();
        assert_eq!(refresh.fetch(&job), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
