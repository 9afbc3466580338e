//! Exercises the whole benchmark under `cargo test --workspace`: every
//! workload at a tiny scale, both pass kinds, against the contract in
//! `BENCHMARK.json`.

use optum_benchmark::{run, RunArgs, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use optum_experiments::benchcheck::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks the array '{key}'"))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks the string '{key}': {entry:?}"))
}

#[test]
fn benchmark_json_names_the_tables() {
    let doc = manifest();

    let workloads: Vec<(&str, &str)> = entries(&doc, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let end_to_end = entries(&doc, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, m) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit, "{}", m.name);
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text(entry, "better"), better, "{}", m.name);
        let bound = entry.get("bound").and_then(Json::as_f64);
        assert_eq!(bound, Some(m.bound), "{}", m.name);
    }

    let per_layer = entries(&doc, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, (name, unit)) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(text(entry, "name"), name);
        assert_eq!(text(entry, "unit"), unit, "{name}");
    }
}

/// One test, not one per workload: the traced passes reset and read the
/// process-wide `optum-obs` registry, so they must not overlap.
#[test]
fn every_workload_meets_the_contract_at_smoke_scale() {
    for (workload, _) in WORKLOADS {
        for traced in [false, true] {
            let args = RunArgs {
                workload: workload.to_string(),
                seed: 11,
                seconds: 0.05,
                traced,
                scale: Scale::Smoke,
            };
            let what = format!("{workload} traced={traced}");
            let result = run(&args).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(result.correct(), "{what}: checks {:?}", result.checks);
            assert_eq!(result.failed, 0, "{what}");
            assert!(result.attempted >= 1, "{what}");

            let line = Json::parse(&result.contract_line()).expect("result line parses");
            let Json::Obj(members) = &line else {
                panic!("{what}: result line is not an object");
            };
            let keys: Vec<&str> = members.iter().map(|m| m.0.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );

            let expected: Vec<(&str, &str)> = if traced {
                PER_LAYER.to_vec()
            } else {
                END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            };
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("{what}: no metrics object");
            };
            assert_eq!(metrics.len(), expected.len(), "{what}");
            for (name, unit) in expected {
                let metric = line.get("metrics").and_then(|m| m.get(name));
                let metric = metric.unwrap_or_else(|| panic!("{what}: {name} missing"));
                assert_eq!(text(metric, "unit"), unit, "{what}: {name}");
                let value = metric.get("value").and_then(Json::as_f64);
                let value = value.unwrap_or_else(|| panic!("{what}: {name} has no finite value"));
                if !traced {
                    assert!(value > 0.0, "{what}: {name} = {value}");
                }
            }
        }
    }
}
