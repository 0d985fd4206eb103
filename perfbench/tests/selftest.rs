//! The benchmark's self-test: every workload at a tiny size emits every
//! metric `BENCHMARK.json` names, with its unit, and the output checks
//! pass on the right expected values and fire on a wrong one.

use cleanupspec_obs::JsonValue;
use perfbench::expected::{CellExpect, Expected};
use perfbench::{record, run, RunConfig, Sizes, Workload};

const TINY: Sizes = Sizes {
    spec_warmup: 400,
    spec_measure: 1_000,
    spec_slice: 400,
    storm_jobs: 2,
    storm_iters: 100,
    storm_slice: 400,
    smith_seeds: 3,
};

fn tiny(workload: Workload, trace: bool, expected: Option<Expected>) -> RunConfig {
    RunConfig {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        sizes: TINY,
        expected,
    }
}

/// The named list of `BENCHMARK.json`.
fn listed(key: &str) -> Vec<JsonValue> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .expect(key)
        .to_vec()
}

fn field(entry: &JsonValue, key: &str) -> String {
    entry
        .get(key)
        .and_then(JsonValue::as_str)
        .expect(key)
        .to_string()
}

#[test]
fn every_listed_metric_is_emitted_with_its_unit() {
    let workloads: Vec<String> = listed("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(
        workloads,
        Workload::ALL.map(Workload::name),
        "BENCHMARK.json workloads"
    );
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want: Vec<(String, String)> = listed(key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        for w in Workload::ALL {
            let out = run(&tiny(w, trace, None));
            assert!(out.correct(), "{} {key}: {:?}", w.name(), out.failures);
            assert!(out.attempted > 0);
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} {key} metrics", w.name());
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {}", w.name(), m.name);
            }
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{} {} is 0", w.name(), m.name);
                }
            }
        }
    }
}

/// The recorded-table form of a tiny run's outputs.
fn recorded_now(workload: Workload) -> Expected {
    let text = record(&tiny(workload, false, None)).expect("record");
    if workload == Workload::SmithCampaign {
        let mut lines = text.lines();
        let squashes = lines.next().and_then(|l| l.strip_prefix("squashes: "));
        return Expected::Campaign {
            squashes: squashes
                .expect("squash line")
                .parse()
                .expect("squash count"),
            findings: lines
                .map(|l| l.trim().trim_matches(&[',', '"'][..]).to_string())
                .collect(),
        };
    }
    let rows = text.lines().map(|l| {
        let l = l.trim().trim_start_matches('(').trim_end_matches("),");
        let (name, nums) = l.split_once("\", ").expect("row");
        let n: Vec<u64> = nums
            .split(", ")
            .map(|v| v.parse().expect("number"))
            .collect();
        CellExpect {
            cell: Box::leak(name.trim_start_matches('"').to_string().into_boxed_str()),
            cycles: n[0],
            insts: n[1],
            cpi_total: n[2],
        }
    });
    Expected::Cells(rows.collect())
}

#[test]
fn output_checks_pass_on_recorded_values_and_fire_on_a_wrong_one() {
    for w in Workload::ALL {
        let right = recorded_now(w);
        for trace in [false, true] {
            let out = run(&tiny(w, trace, Some(right.clone())));
            assert!(out.correct(), "{}: {:?}", w.name(), out.failures);

            let wrong = match &right {
                Expected::Cells(cells) => {
                    let mut cells = cells.clone();
                    cells[0].cycles += 1;
                    Expected::Cells(cells)
                }
                Expected::Campaign { squashes, findings } => Expected::Campaign {
                    squashes: squashes + 1,
                    findings: findings.clone(),
                },
            };
            let out = run(&tiny(w, trace, Some(wrong)));
            assert!(
                !out.correct(),
                "{}: a wrong expected value passed",
                w.name()
            );
            assert!(out.failed > 0 && out.failed <= out.attempted);
            assert!(out.to_json().starts_with("{\"correct\": false"));
        }
    }
}
