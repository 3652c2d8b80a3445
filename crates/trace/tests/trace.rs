//! Integration tests for slime-trace: span nesting in the event stream,
//! histogram bucketing, JSONL round-tripping through slime-json, and the
//! off-by-default contract.
//!
//! The trace level and buffers are process-global, so every test that
//! records serializes through one mutex and resets the surfaces.

use std::sync::{Mutex, MutexGuard};

use slime_json::Value;
use slime_trace::{debug_event, event, fields, span, Level};

static GUARD: Mutex<()> = Mutex::new(());

fn recording(level: Level) -> MutexGuard<'static, ()> {
    let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    slime_trace::set_level(level);
    slime_trace::reset();
    let _ = slime_trace::drain_events();
    g
}

fn done(g: MutexGuard<'static, ()>) {
    slime_trace::set_level(Level::Off);
    slime_trace::reset();
    drop(g);
}

#[test]
fn spans_nest_and_carry_fields() {
    let g = recording(Level::Info);
    {
        let _epoch = span!("epoch", {"n": 3usize});
        {
            let _step = span!("step", {"batch": 32usize, "lr": 1e-3f32});
            event!("loss", {"value": 0.5f64});
        }
    }
    let events = slime_trace::drain_events();
    assert_eq!(events.len(), 5, "{events:?}");

    let epoch_start = &events[0];
    assert_eq!(epoch_start.name, "epoch");
    assert_eq!(epoch_start.parent, 0, "epoch is a root span");
    let epoch_id = epoch_start.id;

    let step_start = &events[1];
    assert_eq!(step_start.name, "step");
    assert_eq!(step_start.parent, epoch_id, "step nests under epoch");
    let step_id = step_start.id;

    let loss = &events[2];
    assert_eq!(loss.name, "loss");
    assert_eq!(loss.parent, step_id, "event attaches to innermost span");

    let step_end = &events[3];
    assert_eq!(step_end.name, "step");
    assert!(step_end.dur_ns.is_some());
    assert_eq!(step_end.parent, epoch_id);

    let epoch_end = &events[4];
    assert_eq!(epoch_end.name, "epoch");
    assert!(epoch_end.dur_ns.unwrap() >= step_end.dur_ns.unwrap());
    done(g);
}

#[test]
fn events_round_trip_through_slime_json() {
    let g = recording(Level::Info);
    {
        let _s = span!("run", {"seed": 42u64, "dataset": "beauty", "ok": true});
        event!("metric", {"ndcg": 0.123f64});
    }
    let events = slime_trace::drain_events();
    for ev in &events {
        let line = ev.to_json().to_compact();
        let parsed = slime_json::parse(&line).expect("every JSONL line parses");
        assert_eq!(
            parsed.field("name").unwrap().as_str(),
            Some(ev.name),
            "name survives"
        );
        assert_eq!(
            parsed.field("ts_ns").unwrap().as_i64(),
            Some(ev.ts_ns as i64)
        );
    }
    // Field payloads keep their JSON types.
    let start = &events[0];
    let parsed = slime_json::parse(&start.to_json().to_compact()).unwrap();
    let fields = parsed.field("fields").unwrap();
    assert_eq!(fields.get("seed").and_then(Value::as_i64), Some(42));
    assert_eq!(
        fields.get("dataset").and_then(Value::as_str),
        Some("beauty")
    );
    assert_eq!(fields.get("ok").and_then(Value::as_bool), Some(true));
    done(g);
}

#[test]
fn histograms_bucket_and_snapshot() {
    let g = recording(Level::Summary);
    let bounds = [1.0, 10.0, 100.0];
    for v in [0.5, 2.0, 2.0, 20.0, 2000.0] {
        slime_trace::metrics::hist_record_with("step_ms", &bounds, v);
    }
    slime_trace::metrics::counter_add("spectral.fft_path", 7);
    slime_trace::metrics::gauge_set("pool.hit_rate", 0.978);
    let snap = slime_trace::metrics::snapshot();
    let h = &snap.hists["step_ms"];
    assert_eq!(h.bounds, bounds.to_vec());
    assert_eq!(h.counts, vec![1, 2, 1, 1], "one per bucket incl. overflow");
    assert_eq!(h.count, 5);
    assert_eq!(snap.counters["spectral.fft_path"], 7);
    assert!((snap.gauges["pool.hit_rate"] - 0.978).abs() < 1e-12);

    // metrics.json parses back through slime-json with the same numbers.
    let parsed = slime_json::parse(&snap.to_json().to_pretty()).unwrap();
    let hist = parsed
        .field("histograms")
        .unwrap()
        .field("step_ms")
        .unwrap();
    let counts: Vec<i64> = hist
        .field("counts")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_i64().unwrap())
        .collect();
    assert_eq!(counts, vec![1, 2, 1, 1]);
    done(g);
}

#[test]
fn run_artifacts_are_parseable() {
    let g = recording(Level::Info);
    {
        let _s = span!("train", {"epochs": 2usize});
        slime_trace::metrics::hist_record("loss", 1.25);
        let _t = slime_trace::prof::timer("matmul2d", slime_trace::prof::Phase::Forward);
    }
    let dir = std::env::temp_dir().join(format!("slime_trace_{}", std::process::id()));
    let arts = slime_trace::sink::write_run(&dir).expect("write run artifacts");

    let jsonl = std::fs::read_to_string(&arts.trace_jsonl).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() >= 2, "span start + end at least: {lines:?}");
    for line in &lines {
        slime_json::parse(line).expect("trace.jsonl line parses");
    }

    let metrics = std::fs::read_to_string(&arts.metrics_json).unwrap();
    let parsed = slime_json::parse(&metrics).expect("metrics.json parses");
    assert!(parsed.field("histograms").unwrap().get("loss").is_some());
    let profile = parsed.field("profile").unwrap().as_arr().unwrap();
    assert!(
        profile
            .iter()
            .any(|r| r.get("op").and_then(Value::as_str) == Some("matmul2d")),
        "profiler row survives into metrics.json"
    );
    std::fs::remove_dir_all(&dir).ok();
    done(g);
}

#[test]
fn profiler_merges_phases_into_sorted_table() {
    let g = recording(Level::Summary);
    slime_trace::prof::record("matmul2d", slime_trace::prof::Phase::Forward, 5_000);
    slime_trace::prof::record("matmul2d", slime_trace::prof::Phase::Backward, 7_000);
    slime_trace::prof::record("softmax", slime_trace::prof::Phase::Forward, 1_000);
    let table = slime_trace::prof::table();
    assert_eq!(table.len(), 2);
    assert_eq!(table[0].name, "matmul2d", "sorted by total time desc");
    assert_eq!(table[0].fwd.count, 1);
    assert_eq!(table[0].bwd.total_ns, 7_000);
    assert_eq!(table[1].name, "softmax");
    done(g);
}

#[test]
fn disabled_tracing_records_nothing() {
    let g = recording(Level::Off);
    {
        let _s = span!("epoch", {"n": 1usize});
        event!("loss", {"v": 1.0f64});
        debug_event!("noise");
        let t = slime_trace::prof::timer("matmul2d", slime_trace::prof::Phase::Forward);
        assert!(t.is_none(), "disabled timer must not take a clock reading");
        slime_trace::metrics::counter_add("c", 1);
        slime_trace::metrics::gauge_set("g", 1.0);
        slime_trace::metrics::hist_record("h", 1.0);
    }
    assert!(slime_trace::drain_events().is_empty());
    let snap = slime_trace::metrics::snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.gauges.is_empty());
    assert!(snap.hists.is_empty());
    assert!(snap.profile.is_empty());
    done(g);
}

#[test]
fn summary_level_keeps_metrics_but_not_events() {
    let g = recording(Level::Summary);
    {
        let _s = span!("epoch");
        event!("loss");
    }
    slime_trace::metrics::counter_add("c", 2);
    assert!(
        slime_trace::drain_events().is_empty(),
        "summary level records no event stream"
    );
    assert_eq!(slime_trace::metrics::snapshot().counters["c"], 2);
    done(g);
}

#[test]
fn debug_events_only_at_debug_level() {
    let g = recording(Level::Info);
    debug_event!("hidden", {"x": 1usize});
    assert!(slime_trace::drain_events().is_empty());
    slime_trace::set_level(Level::Debug);
    debug_event!("visible", {"x": 1usize});
    let events = slime_trace::drain_events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].name, "visible");
    done(g);
}

#[test]
fn parallel_jobs_leave_worker_slices_gauges_and_a_loadable_timeline() {
    let g = recording(Level::Info);
    slime_par::set_threads(4);
    {
        let _s = span!("train", {"epochs": 1usize});
        // Big enough grids that the pool takes the parallel path (serial
        // jobs record histograms but no slices).
        for _ in 0..8 {
            parallel_touch(1 << 14, 256);
        }
        // Which lanes run the jobs above is scheduling-dependent: on tiny
        // chunks the publisher can drain a grid before any worker wakes.
        // This job forces a second lane: a publisher chunk waits (bounded)
        // until a pool worker has claimed a chunk of the same grid.
        let other_lane = std::sync::atomic::AtomicBool::new(false);
        slime_par::parallel_for(64, 1, |_, _| {
            if slime_par::current_worker() != 0 {
                other_lane.store(true, std::sync::atomic::Ordering::SeqCst);
                return;
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while !other_lane.load(std::sync::atomic::Ordering::SeqCst)
                && std::time::Instant::now() < deadline
            {
                std::thread::yield_now();
            }
        });
    }
    let events = slime_trace::drain_events();
    let slices = slime_trace::drain_slices();
    assert!(!slices.is_empty(), "parallel jobs must leave worker slices");
    // Jobs across a 4-thread pool must involve at least two distinct lanes.
    let workers: std::collections::BTreeSet<u32> = slices.iter().map(|s| s.worker).collect();
    assert!(workers.len() >= 2, "expected >= 2 lanes, got {workers:?}");
    for s in &slices {
        assert!(s.chunks > 0, "a slice records claimed work: {s:?}");
        assert!(s.n_chunks as u64 >= s.chunks);
    }

    // Scheduling aggregates fold into the snapshot: per-worker gauges
    // plus the chunk-size / grid / queue-wait histograms.
    let snap = slime_trace::metrics::snapshot();
    assert!(
        snap.gauges.keys().any(|k| k.starts_with("par.worker.")),
        "per-worker gauges missing: {:?}",
        snap.gauges.keys().collect::<Vec<_>>()
    );
    assert!(
        workers
            .iter()
            .any(|w| snap.gauges[&format!("par.worker.{w}.busy_ns")] > 0.0),
        "some lane accumulated busy time"
    );
    assert!(snap.hists.contains_key("par.chunk_size"));
    assert!(snap.hists.contains_key("par.grid_chunks"));
    assert!(snap.hists.contains_key("par.queue_wait_ns"));

    // The Chrome-trace export round-trips through slime-json: worker
    // slices are pid-1 "X" rows, each lane has a thread_name record.
    let doc = slime_trace::timeline::chrome_trace(&events, &slices);
    let parsed = slime_json::parse(&doc.to_compact()).expect("timeline.json parses");
    let doc_parsed = parsed.field("traceEvents").unwrap();
    let rows = doc_parsed.as_arr().unwrap();
    let x_rows = rows
        .iter()
        .filter(|r| {
            r.get("ph").and_then(Value::as_str) == Some("X")
                && r.get("pid").and_then(Value::as_i64) == Some(1)
        })
        .count();
    assert_eq!(x_rows, slices.len(), "one complete-slice row per slice");
    let lanes = rows
        .iter()
        .filter(|r| {
            r.get("name").and_then(Value::as_str) == Some("thread_name")
                && r.get("pid").and_then(Value::as_i64) == Some(1)
        })
        .count();
    assert_eq!(lanes, workers.len(), "one named lane per worker");
    done(g);
}

/// A parallel workload whose chunks do real (cheap) work.
fn parallel_touch(n: usize, chunk: usize) {
    let data: Vec<u64> = (0..n as u64).collect();
    slime_par::parallel_for(n, chunk, |start, end| {
        let mut acc = 0u64;
        for &v in &data[start..end] {
            acc = acc.wrapping_add(v);
        }
        std::hint::black_box(acc);
    });
}

#[test]
fn draining_while_workers_record_loses_and_duplicates_nothing() {
    let g = recording(Level::Info);
    slime_par::set_threads(4);
    const JOBS: usize = 32;
    const PER_JOB: usize = 512;

    // Worker threads record one point event per element while the
    // publisher's own chunks interleave mid-job drains: chunk index 0
    // of every job drains the buffers concurrently with live recorders.
    // slime-par drives the concurrency (L5 bans raw spawns), and the
    // events recorded before/after a drain partition exactly — nothing
    // is lost, nothing comes back twice.
    let collected = Mutex::new(Vec::new());
    for _ in 0..JOBS {
        slime_par::parallel_for(PER_JOB, PER_JOB / 8, |start, end| {
            for _ in start..end {
                slime_trace::record_event("tick", Vec::new(), Level::Info);
            }
            if start == 0 {
                let drained = slime_trace::drain_events();
                collected.lock().unwrap().extend(drained);
            }
        });
    }
    let mut collected = collected.into_inner().unwrap();
    collected.extend(slime_trace::drain_events());
    let ticks = collected.iter().filter(|e| e.name == "tick").count();
    assert_eq!(
        ticks,
        JOBS * PER_JOB,
        "mid-job drains must neither lose nor duplicate events"
    );

    // reset() racing live recorders must also be safe; afterwards one
    // more quiet pass drains cleanly.
    slime_par::parallel_for(PER_JOB, PER_JOB / 8, |start, end| {
        for _ in start..end {
            slime_trace::record_event("tock", Vec::new(), Level::Info);
        }
        if start == 0 {
            slime_trace::reset();
        }
    });
    let _ = slime_trace::drain_events();
    done(g);
}

#[test]
fn fields_macro_builds_typed_payloads() {
    let f: Vec<(String, Value)> = fields!({"a": 1usize, "b": 2.5f32, "c": "x", "d": false});
    assert_eq!(f[0], ("a".to_string(), Value::Int(1)));
    assert_eq!(f[1], ("b".to_string(), Value::Float(2.5)));
    assert_eq!(f[2], ("c".to_string(), Value::Str("x".into())));
    assert_eq!(f[3], ("d".to_string(), Value::Bool(false)));
    let empty: Vec<(String, Value)> = fields!();
    assert!(empty.is_empty());
}
