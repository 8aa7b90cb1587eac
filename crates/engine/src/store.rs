//! The engine side of the persistent result store: job-aware keys, the record payload
//! format, and the shared handle batches consult.
//!
//! `athena-store` itself knows nothing about jobs — it stores opaque payloads under
//! `(identity, variant)` keys. This module supplies the two halves the engine needs on
//! top:
//!
//! * **Keys** — [`record_key`] pairs [`Job::identity_hash`] (which facets make a cell
//!   *the same cell*) with [`variant_hash`] (the facets that are excluded from the
//!   identity but still change the output: the seed policy and the telemetry request).
//!   Two jobs with equal keys produce bit-identical outputs, so a stored record can stand
//!   in for a simulation.
//! * **Payloads** — [`StoreHandle::encode`] / [`StoreHandle::decode`] wrap the lossless
//!   [`crate::report::job_output_json`] serialisation in a small self-describing envelope
//!   ([`crate::report::RESULT_RECORD_SCHEMA`]) carrying the cell's experiment, label and
//!   hashes, so `results query` can browse a store without re-deriving jobs.
//!
//! Failure discipline: decode and store errors inside a batch are **loud** — the engine
//! panics with the store directory and cell label rather than silently re-simulating over
//! a store that lied. A store you cannot trust is a store you must look at.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use athena_store::{RecordKey, ResultStore, StoreError, StorePolicy};

use crate::job::{Job, JobOutput};
use crate::json::Json;
use crate::report::{job_output_from_json, job_output_json, RESULT_RECORD_SCHEMA};
use crate::seed::SeedHasher;

/// The output-variant hash of a job: the facets [`Job::identity_hash`] deliberately
/// excludes but that still affect the produced [`JobOutput`]: the telemetry request (it
/// decides whether a timeline is attached and how wide its windows are). Cached results
/// are keyed by `(identity, variant)` so a telemetry run never shadows a plain run of the
/// same cell.
pub fn variant_hash(job: &Job) -> u64 {
    let mut h = SeedHasher::new();
    // Every agent takes its seed from its configuration. The hash still starts with the
    // name of that one seed policy, so store keys stay byte-identical to the stores
    // written while a second, per-cell policy existed.
    h.write_str("config");
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
    /// Opens the store in `dir` under `policy`. Policies that never write
    /// ([`StorePolicy::ReadOnly`], [`StorePolicy::Off`]) open read-only and take no lock.
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

    /// Serialises one finished cell into a store record payload: the bytes of
    /// [`StoreHandle::record_doc`].
    pub fn encode(job: &Job, output: &JobOutput) -> Vec<u8> {
        Self::record_doc(job, output).to_string().into_bytes()
    }

    /// One finished cell's record as a document: the self-describing envelope the store
    /// persists and a distributed worker embeds in its `RESULT` frame.
    pub fn record_doc(job: &Job, output: &JobOutput) -> Json {
        let key = record_key(job);
        RESULT_RECORD_SCHEMA.document(vec![
            ("experiment", Json::str(&job.experiment)),
            ("label", Json::str(job.label())),
            ("workload", Json::str(job.cell.name())),
            ("coordinator", Json::str(job.coordinator.name())),
            ("identity", Json::hex(key.identity)),
            ("variant", Json::hex(key.variant)),
            ("seed", Json::hex(job.seed)),
            ("instructions", Json::hex(job.instructions)),
            ("output", job_output_json(output)),
        ])
    }

    /// Reconstructs the exact [`JobOutput`] from a record payload written by
    /// [`StoreHandle::encode`].
    pub fn decode(payload: &[u8]) -> Result<JobOutput, String> {
        let text =
            std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
        let doc = Json::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
        if !RESULT_RECORD_SCHEMA.matches(&doc) {
            return Err(format!(
                "payload does not declare schema '{}'",
                RESULT_RECORD_SCHEMA.id()
            ));
        }
        job_output_from_json(doc.get("output").ok_or("payload has no 'output' field")?)
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
        let payload = Self::encode(job, output);
        let key = record_key(job);
        self.lock().put(key, &payload).unwrap_or_else(|e| {
            panic!(
                "result store {}: persisting cell '{}' (record {:016x}.{:016x}) failed: {e}",
                self.dir.display(),
                job.label(),
                key.identity,
                key.variant
            )
        });
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
        // Refresh never reads; Off neither reads nor writes.
        let refresh = StoreHandle::open(&dir, StorePolicy::ReadOnly).unwrap();
        assert_eq!(refresh.policy(), StorePolicy::ReadOnly);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
