//! Persistent result store acceptance tests (ISSUE 6):
//!
//! * a warm re-run of an experiment simulates zero cells and reproduces the table
//!   byte-for-byte;
//! * a killed/widened sweep resumes paying only for the missing cells — for figures and
//!   for the tuner;
//! * `StorePolicy::Refresh` re-simulates everything, `StorePolicy::ReadOnly` never
//!   writes;
//! * corruption is loud: a damaged store fails the run, it is never silently recomputed
//!   over (proptest over arbitrary log truncation, mirroring `tests/trace_io.rs`);
//! * one run that reuses cells across experiments writes the same store bytes as
//!   separate runs, and separately created options never share a reuse.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;

mod common;

use athena_repro::engine::json::Json;
use athena_repro::engine::{with_recording, Engine, Job, RecordKey, StoreHandle};
use athena_repro::harness::experiments::{run_experiment, tuning_set};
use athena_repro::prelude::*;
use athena_repro::store::{INDEX_FILE, LOG_FILE};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("athena-store-it-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(limit: usize, store: Option<StoreHandle>) -> RunOptions {
    RunOptions {
        instructions: 8_000,
        workload_limit: Some(limit),
        jobs: 2,
        trace_dir: None,
        tuned_config: None,
        store,
        dist: None,
        probe: None,
        progress: false,
        memo: Default::default(),
    }
}

fn rw(dir: &std::path::Path) -> StoreHandle {
    StoreHandle::open(dir, StorePolicy::ReadWrite).expect("open result store")
}

fn cd1() -> SystemConfig {
    SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet)
}

fn engine_jobs(n: usize) -> Vec<Job> {
    all_workloads()
        .into_iter()
        .take(n)
        .map(|spec| Job::single("store-it", spec, cd1(), CoordinatorKind::Athena, 6_000))
        .collect()
}

#[test]
fn warm_rerun_simulates_nothing_and_reproduces_the_table_bytes() {
    let dir = tmp("warm");
    let (cold_table, cold_cells) = {
        let o = opts(4, Some(rw(&dir)));
        with_recording(|| run_experiment("fig7", &o).expect("fig7 exists"))
    };
    assert!(!cold_cells.is_empty());
    assert!(
        cold_cells.iter().all(|c| !c.cached),
        "a cold store serves nothing"
    );

    let (warm_table, warm_cells) = {
        let o = opts(4, Some(rw(&dir)));
        with_recording(|| run_experiment("fig7", &o).expect("fig7 exists"))
    };
    assert_eq!(warm_cells.len(), cold_cells.len());
    assert!(
        warm_cells.iter().all(|c| c.cached),
        "a warm re-run simulates zero cells"
    );
    assert_eq!(
        warm_table.to_csv(),
        cold_table.to_csv(),
        "cached tables are byte-identical"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_widened_sweep_pays_only_for_the_missing_cells() {
    let dir = tmp("widen");
    let (narrow_table, narrow_cells) = {
        let o = opts(4, Some(rw(&dir)));
        with_recording(|| run_experiment("fig7", &o).expect("fig7 exists"))
    };
    // Widening the workload cap keeps the original cells' identities: the resumed sweep
    // re-simulates only the new workloads' cells.
    let (wide_table, wide_cells) = {
        let o = opts(8, Some(rw(&dir)));
        with_recording(|| run_experiment("fig7", &o).expect("fig7 exists"))
    };
    let cached = wide_cells.iter().filter(|c| c.cached).count();
    assert_eq!(
        cached,
        narrow_cells.len(),
        "every old cell comes from the store"
    );
    assert_eq!(
        wide_cells.len() - cached,
        wide_cells.len() - narrow_cells.len(),
        "only the new workloads simulate"
    );
    assert_ne!(wide_table.to_csv(), narrow_table.to_csv());

    // And the resumed table is byte-identical to a store-less run of the same options.
    let fresh = run_experiment("fig7", &opts(8, None)).expect("fig7 exists");
    assert_eq!(wide_table.to_csv(), fresh.to_csv());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_widened_tuning_search_resimulates_only_new_points() {
    let dir = tmp("tune");
    let space = DesignSpace::quick();
    // 6 samples ≥ the quick grid, so the candidate set is the full enumeration both
    // times and the narrow run's cells all reappear in the wide one.
    let strategy = TuneStrategy {
        samples: 6,
        eta: 2,
        rungs: 1,
    };
    let tune_opts = |store: Option<StoreHandle>| {
        TuneOptions::new(8_000).with_engine(Engine::new(2).with_store(store))
    };
    let narrow_workloads = tuning_set(&opts(4, None));
    let wide_workloads = tuning_set(&opts(6, None));
    assert!(narrow_workloads
        .iter()
        .all(|w| wide_workloads.iter().any(|v| v.name == w.name)));

    let (_, narrow_cells) = with_recording(|| {
        tune(
            &space,
            &strategy,
            &narrow_workloads,
            &tune_opts(Some(rw(&dir))),
        )
    });
    let (wide_board, wide_cells) = with_recording(|| {
        tune(
            &space,
            &strategy,
            &wide_workloads,
            &tune_opts(Some(rw(&dir))),
        )
    });
    let cached = wide_cells.iter().filter(|c| c.cached).count();
    assert_eq!(
        cached,
        narrow_cells.len(),
        "every old point comes from the store"
    );
    assert!(wide_cells.len() > narrow_cells.len());

    let fresh = tune(&space, &strategy, &wide_workloads, &tune_opts(None));
    assert_eq!(wide_board.to_csv(), fresh.to_csv());
    assert_eq!(
        wide_board.to_json().to_string(),
        fresh.to_json().to_string(),
        "the resumed leaderboard is byte-identical to a store-less run"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// Runs `figs` through one set of options, or through fresh options per experiment, on
/// a store in `dir`; returns their CSVs and cell records.
fn run_figs(
    figs: &[&str],
    dir: &std::path::Path,
    shared: bool,
) -> (Vec<String>, Vec<athena_repro::engine::CellRecord>) {
    let one = opts(4, Some(rw(dir)));
    let (tables, cells) = with_recording(|| {
        figs.iter()
            .map(|fig| {
                let fresh;
                let o = if shared {
                    &one
                } else {
                    fresh = RunOptions {
                        memo: Default::default(),
                        ..one.clone()
                    };
                    &fresh
                };
                run_experiment(fig, o).expect("experiment exists").to_csv()
            })
            .collect()
    });
    drop(one);
    (tables, cells)
}

#[test]
fn one_run_reuses_shared_cells_and_writes_the_store_separate_runs_write() {
    const FIGS: [&str; 3] = ["fig7", "fig8a", "fig8b"];
    let shared_dir = tmp("memo-shared");
    let separate_dir = tmp("memo-separate");
    let (shared_tables, shared_cells) = run_figs(&FIGS, &shared_dir, true);
    let (separate_tables, separate_cells) = run_figs(&FIGS, &separate_dir, false);
    assert!(
        shared_cells.iter().any(|c| c.reused),
        "fig7, fig8a and fig8b share cells, so one run reuses some"
    );
    assert!(shared_cells
        .iter()
        .all(|c| !c.cached && c.error.is_none() && (!c.reused || c.wall.is_zero())));
    assert!(
        separate_cells.iter().all(|c| !c.reused),
        "fresh options start with an empty memo"
    );
    assert_eq!(shared_tables, separate_tables);
    for file in [LOG_FILE, INDEX_FILE] {
        assert_eq!(
            fs::read(shared_dir.join(file)).unwrap(),
            fs::read(separate_dir.join(file)).unwrap(),
            "{file} differs between one run and three"
        );
    }

    // Reused cells were persisted too: a warm rerun of fig8b is all store hits.
    let warm = opts(4, Some(rw(&shared_dir)));
    let (table, cells) = with_recording(|| run_experiment("fig8b", &warm).expect("fig8b"));
    assert_eq!(table.to_csv(), shared_tables[2]);
    assert!(!cells.is_empty() && cells.iter().all(|c| c.cached && !c.reused));
    drop(warm);
    fs::remove_dir_all(&shared_dir).unwrap();
    fs::remove_dir_all(&separate_dir).unwrap();
}

#[test]
fn separately_created_options_never_share_a_reuse() {
    assert_ne!(RunOptions::quick(), RunOptions::quick());
    let first = opts(3, None);
    assert_eq!(first.clone(), first, "clones share the memo");
    // Three runs of the same experiment on separate options: each asks once.
    for _ in 0..3 {
        let (_, cells) = with_recording(|| run_experiment("fig7", &opts(3, None)));
        assert!(cells.iter().all(|c| !c.reused));
    }
    // Three runs on clones of one set of options: the third reuses every cell.
    let reruns: Vec<_> = (0..3)
        .map(|_| with_recording(|| run_experiment("fig7", &first.clone())).1)
        .collect();
    assert!(reruns[..2].iter().flatten().all(|c| !c.reused));
    assert!(!reruns[2].is_empty() && reruns[2].iter().all(|c| c.reused));
}

#[test]
fn refresh_resimulates_and_read_only_never_writes() {
    let dir = tmp("policies");
    let jobs = engine_jobs(3);
    {
        let results = Engine::new(2).with_store(Some(rw(&dir))).run(jobs.clone());
        assert!(results.iter().all(|r| !r.cached));
    }
    // Refresh never reads: every cell simulates again (and overwrites its record).
    {
        let refresh = StoreHandle::open(&dir, StorePolicy::Refresh).unwrap();
        let results = Engine::new(2).with_store(Some(refresh)).run(jobs.clone());
        assert!(results.iter().all(|r| !r.cached));
    }
    // ReadOnly serves the cache but leaves the store bytes untouched — even for misses.
    let log_before = fs::read(dir.join(LOG_FILE)).unwrap();
    {
        let ro = StoreHandle::open(&dir, StorePolicy::ReadOnly).unwrap();
        let results = Engine::new(2)
            .with_store(Some(ro.clone()))
            .run(jobs.clone());
        assert!(results.iter().all(|r| r.cached && r.wall == Duration::ZERO));
        let miss = engine_jobs(5).split_off(3);
        let results = Engine::new(2).with_store(Some(ro)).run(miss);
        assert!(results.iter().all(|r| !r.cached));
    }
    assert_eq!(fs::read(dir.join(LOG_FILE)).unwrap(), log_before);
    // And a read-only open of a store that does not exist is an error, not an empty
    // cache.
    let missing = tmp("policies-missing");
    assert!(StoreHandle::open(&missing, StorePolicy::ReadOnly).is_err());
    assert!(!missing.exists(), "read-only opens create nothing");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_corrupt_record_fails_the_batch_loudly_instead_of_being_recomputed_over() {
    let dir = tmp("corrupt");
    let jobs = engine_jobs(2);
    {
        let results = Engine::new(2).with_store(Some(rw(&dir))).run(jobs.clone());
        assert_eq!(results.len(), 2);
    }
    // Flip one payload byte near the end of the log (headers stay intact, so the store
    // opens; the checksum catches the damage at fetch time).
    let log = dir.join(LOG_FILE);
    let mut bytes = fs::read(&log).unwrap();
    let at = bytes.len() - 40;
    bytes[at] ^= 0x01;
    fs::write(&log, &bytes).unwrap();

    let handle = StoreHandle::open(&dir, StorePolicy::ReadOnly).unwrap();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Engine::new(2).with_store(Some(handle)).run(jobs)
    }));
    assert!(outcome.is_err(), "a lying cache must panic the batch");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_zero_length_payload_names_the_offending_record_key() {
    let dir = tmp("zero-len");
    let job = engine_jobs(1).remove(0);
    let key = athena_repro::engine::record_key(&job);
    {
        let mut store = athena_repro::store::ResultStore::open(&dir, false).unwrap();
        store.put(key, b"").unwrap();
        store.flush().unwrap();
    }

    let handle = StoreHandle::open(&dir, StorePolicy::ReadOnly).unwrap();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.fetch(&job)));
    let message = match outcome {
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic>".into()),
        Ok(_) => panic!("fetching a zero-length record must fail, not decode"),
    };
    let named = format!("{:016x}.{:016x}", key.identity, key.variant);
    assert!(
        message.contains(&named),
        "the error must name the offending record key {named}: {message}"
    );
    assert!(
        message.contains(&job.label()),
        "the error must name the cell: {message}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_results_cli_names_the_offending_key_on_malformed_records() {
    // `results query` on a store holding a zero-length payload: the envelope cannot
    // parse, and the error must say which record is broken.
    let q_dir = tmp("cli-zero-len");
    let key = RecordKey {
        identity: 0xabc,
        variant: 0xd,
    };
    {
        let mut store = athena_repro::store::ResultStore::open(&q_dir, false).unwrap();
        store.put(key, b"").unwrap();
        store.flush().unwrap();
    }
    let out = common::run_bin(
        "results",
        &["query", "--store", q_dir.to_str().unwrap()],
        &[],
    );
    let stderr = common::text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("0000000000000abc.000000000000000d"),
        "query error must name the record key: {stderr}"
    );

    // A record whose envelope lacks a field: the error names the key and the field.
    let f_dir = tmp("cli-no-instructions");
    {
        let mut store = athena_repro::store::ResultStore::open(&f_dir, false).unwrap();
        let payload = "{\"schema\":\"athena-result-record-v1\",\"experiment\":\"fig7\",\
                       \"label\":\"w/athena/<cfg>\",\"workload\":\"w\",\"coordinator\":\"athena\",\
                       \"seed\":\"0x0000000000000001\",\"output\":null}";
        store.put(key, payload.as_bytes()).unwrap();
        store.flush().unwrap();
    }
    let out = common::run_bin(
        "results",
        &["query", "--store", f_dir.to_str().unwrap()],
        &[],
    );
    let stderr = common::text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("record 0000000000000abc.000000000000000d: no hex 'instructions' field"),
        "query error must name the record key and the field: {stderr}"
    );

    // `results diff --against` where the second store's record fails its checksum: the
    // fetch error must also say which key it was reading.
    let a_dir = tmp("cli-diff-a");
    fixture(&a_dir);
    let b_dir = tmp("cli-diff-b");
    fs::create_dir_all(&b_dir).unwrap();
    for name in [LOG_FILE, INDEX_FILE] {
        fs::copy(a_dir.join(name), b_dir.join(name)).unwrap();
    }
    let log = b_dir.join(LOG_FILE);
    let mut bytes = fs::read(&log).unwrap();
    let at = bytes.len() - 10;
    bytes[at] ^= 0x01;
    fs::write(&log, &bytes).unwrap();

    let out = common::run_bin(
        "results",
        &[
            "diff",
            "--store",
            a_dir.to_str().unwrap(),
            "--against",
            b_dir.to_str().unwrap(),
        ],
        &[],
    );
    let stderr = common::text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let named = stderr
        .split("record ")
        .nth(1)
        .map(|rest| rest.chars().take(33).collect::<String>())
        .unwrap_or_default();
    assert!(
        named.len() == 33
            && named.as_bytes()[16] == b'.'
            && named
                .chars()
                .enumerate()
                .all(|(i, c)| i == 16 || c.is_ascii_hexdigit()),
        "diff error must name the offending record key, got: {stderr}"
    );
    for dir in [q_dir, f_dir, a_dir, b_dir] {
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn results_verify_decodes_every_live_record() {
    let dir = tmp("verify-decode");
    let jobs = engine_jobs(2);
    {
        let handle = StoreHandle::open(&dir, StorePolicy::ReadWrite).unwrap();
        for job in &jobs {
            handle.persist(job, &job.run());
        }
    }
    let verify = |extra: &[&str]| {
        let mut args = vec!["verify", "--store", dir.to_str().unwrap()];
        args.extend(extra);
        common::run_bin("results", &args, &[])
    };
    let out = verify(&[]);
    let stdout = common::text(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", common::text(&out.stderr));
    assert!(stdout.contains("2 live, 2 decoded"), "{stdout}");
    let out = verify(&["--json"]);
    let doc = Json::parse(&common::text(&out.stdout)).unwrap();
    assert_eq!(doc.get("decoded_records").and_then(Json::as_f64), Some(2.0));

    // A record whose checksum holds but whose output does not decode: verify names it
    // and fails, as a warm fetch of it would.
    let bad = RecordKey {
        identity: 0xbad,
        variant: 0x1,
    };
    {
        let mut store = athena_repro::store::ResultStore::open(&dir, false).unwrap();
        let payload = r#"{"schema":"athena-result-record-v1","output":{"kind":"single"}}"#;
        store.put(bad, payload.as_bytes()).unwrap();
        store.flush().unwrap();
    }
    let out = verify(&[]);
    let stderr = common::text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("0000000000000bad.0000000000000001")
            && stderr.contains("missing field 'result'"),
        "verify must name the record and its decode error: {stderr}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// Builds a small store fixture directly (no simulation) and returns its payloads.
fn fixture(dir: &std::path::Path) -> Vec<(RecordKey, Vec<u8>)> {
    let mut store = athena_repro::store::ResultStore::open(dir, false).unwrap();
    let records: Vec<(RecordKey, Vec<u8>)> = (0..5u64)
        .map(|i| {
            let key = RecordKey {
                identity: 0x1000 + i,
                variant: i,
            };
            (key, vec![i as u8 + 1; 10 + (i as usize) * 7])
        })
        .collect();
    for (key, payload) in &records {
        store.put(*key, payload).unwrap();
    }
    store.flush().unwrap();
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Truncating the record log anywhere is always loud: with the index present the
    /// open fails (the index covers bytes that no longer exist); with the index deleted
    /// the open either fails or recovers a verified prefix — never wrong payloads.
    #[test]
    fn truncated_stores_fail_loudly_or_recover_a_verified_prefix(cut_seed in 0u64..100_000) {
        let drop_index = cut_seed % 2 == 1;
        let dir = tmp(&format!("truncate-{cut_seed}-{drop_index}"));
        let records = fixture(&dir);
        let log = dir.join(LOG_FILE);
        let full = fs::read(&log).unwrap();
        let cut = (cut_seed as usize) % full.len();
        fs::write(&log, &full[..cut]).unwrap();
        if drop_index {
            fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        }

        let opened = athena_repro::store::ResultStore::open(&dir, true);
        if drop_index {
            if let Ok(mut store) = opened {
                // Recovery is only legal at a record boundary, and every surviving
                // record must round-trip its exact original payload.
                let keys = store.keys();
                prop_assert!(keys.len() <= records.len());
                for (i, key) in keys.iter().enumerate() {
                    prop_assert_eq!(*key, records[i].0, "recovered keys are a prefix");
                    prop_assert_eq!(
                        store.get(*key).unwrap().as_deref(),
                        Some(records[i].1.as_slice())
                    );
                }
            }
        } else {
            prop_assert!(
                opened.is_err(),
                "an index covering missing bytes must fail the open"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
