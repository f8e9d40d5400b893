//! The benchmark's own checks, at a tiny fraction so they run in seconds:
//! every metric `BENCHMARK.json` names is emitted with its unit, and the
//! output check fails a run whose cached record changed a byte.

use std::path::PathBuf;
use std::time::Duration;

use campaign_bench::{end_to_end, layers, Case, Cycles, WorkDir, Workload, DEFAULT_SEED};
use grid_ser::Value;

/// Small enough that every workload's plan drains in about a second.
const TINY: f64 = 0.001;

fn tiny(workload: Workload) -> Case {
    Case {
        fraction: TINY,
        ..Case::new(workload, DEFAULT_SEED)
    }
}

/// A scratch directory under the test target directory, removed on drop.
fn work_dir(name: &str) -> WorkDir {
    WorkDir::create(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name))
        .expect("scratch directory")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let json = Value::parse(&text).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(metrics: &[campaign_bench::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let end_to_end_declared = declared("end_to_end");
    let per_layer_declared = declared("per_layer");
    for workload in Workload::ALL {
        let case = tiny(workload);
        let work = work_dir(&format!("metrics-{}", workload.name()));
        let e2e = end_to_end(&case, &work, Duration::ZERO, 1).expect("end-to-end run");
        assert_eq!(
            emitted(&e2e.metrics),
            end_to_end_declared,
            "{}",
            workload.name()
        );
        let per_layer = layers(&case, &work).expect("traced run");
        assert_eq!(
            emitted(&per_layer.metrics),
            per_layer_declared,
            "{}",
            workload.name()
        );
        for m in e2e.metrics.iter().chain(&per_layer.metrics) {
            assert!(m.value.is_finite(), "{} {}", workload.name(), m.name);
        }
        let ticks = per_layer
            .metrics
            .iter()
            .find(|m| m.name == "core.realloc.ticks")
            .unwrap();
        assert_eq!(
            ticks.value == 0.0,
            workload == Workload::FcfsDeep,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn a_flipped_record_byte_fails_the_digest_check() {
    let case = tiny(Workload::Paper364);
    let work = work_dir("flipped-byte");
    let mut cycles = Cycles::default();

    let clean = cycles.drain(&case, &work).expect("drain");
    cycles
        .read_back(&case, &clean)
        .expect("an untouched cache passes");

    // Change one digit of a job record between the drain and the reads,
    // keeping the file valid JSON, so the record still loads.
    let drain = cycles.drain(&case, &work).expect("drain");
    let path = drain.cache().path(&drain.units()[0]);
    let mut bytes = std::fs::read(&path).unwrap();
    let outcome_at = bytes.windows(9).position(|w| w == b"\"outcome\"").unwrap();
    let digit = outcome_at
        + bytes[outcome_at..]
            .iter()
            .position(|b| (b'1'..=b'8').contains(b))
            .unwrap();
    bytes[digit] += 1;
    std::fs::write(&path, &bytes).unwrap();

    let err = cycles
        .read_back(&case, &drain)
        .expect_err("the changed byte must fail the check");
    assert!(
        err.contains("resume digest") && err.contains("differs"),
        "{err}"
    );
}

#[test]
fn the_pinned_digest_rejects_other_output() {
    let case = Case::new(Workload::SeedSweep, DEFAULT_SEED);
    let pinned = case.pinned_digest().expect("default seed is pinned");
    assert!(case.check_pinned(pinned, "test").is_ok());
    assert!(case
        .check_pinned("00000000000000000000000000000000", "test")
        .is_err());
    assert!(Case::new(Workload::SeedSweep, 7).pinned_digest().is_none());
    assert!(tiny(Workload::SeedSweep).pinned_digest().is_none());
    // The workloads that run the paper seed's traces at every seed keep
    // their pinned digest at every seed.
    for workload in [Workload::Paper364, Workload::FcfsDeep] {
        assert_eq!(Case::new(workload, 7).trace_seeds(), vec![DEFAULT_SEED]);
        assert!(Case::new(workload, 7).pinned_digest().is_some());
    }
}
