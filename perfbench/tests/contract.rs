//! The benchmark's contract: metric names and units agree with
//! `BENCHMARK.json`, the result line parses, seeded inputs are
//! reproducible, and the correctness gate turns a zero iteration budget
//! into a failed solve rather than a fast one.

use parfem::trace::json::{self, Json};
use parfem_perfbench::gate::{self, MAX_TRUE_REL_RES};
use parfem_perfbench::metrics::{result_json, MetricSpec, END_TO_END, PER_LAYER};
use parfem_perfbench::workload::{self, Instance, MAX_ITERS, WORKLOADS};
use std::collections::{BTreeMap, BTreeSet};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn table(specs: &[MetricSpec]) -> Vec<(String, String)> {
    specs
        .iter()
        .map(|s| (s.name.to_string(), s.unit.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    assert_eq!(table(&END_TO_END), declared("end_to_end"));
    assert_eq!(table(&PER_LAYER), declared("per_layer"));
}

#[test]
fn workloads_match_benchmark_json() {
    let declared: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(ours, declared);
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let mut seen = BTreeSet::new();
    for s in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(seen.insert(s.name), "duplicate metric {}", s.name);
        assert!(s.name.len() <= 64 && s.name.chars().next().unwrap().is_ascii_alphanumeric());
        assert!(s
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        assert!(s.unit.len() <= 16 && !s.unit.is_empty());
        assert!(s
            .unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
    assert!(END_TO_END
        .iter()
        .any(|s| s.name == "setup_s" && s.unit == "s"));
}

#[test]
fn result_line_carries_every_metric_with_its_unit() {
    let values: BTreeMap<&str, f64> = END_TO_END
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name, 0.25 * (i + 1) as f64))
        .collect();
    let line = result_json(true, 7, 0, &END_TO_END, &values).expect("all metrics present");
    let parsed = json::parse(&line).expect("result line is JSON");
    assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(7.0));
    assert_eq!(parsed.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = parsed
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), END_TO_END.len());
    for (spec, (name, m)) in END_TO_END.iter().zip(metrics) {
        assert_eq!(spec.name, name);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(spec.unit));
        assert_eq!(
            m.get("value").and_then(Json::as_f64),
            Some(values[spec.name])
        );
    }

    let mut missing = values.clone();
    missing.remove("setup_s");
    assert!(result_json(true, 7, 0, &END_TO_END, &missing)
        .unwrap_err()
        .contains("setup_s"));
    let mut nan = values;
    nan.insert("solve_s", f64::NAN);
    assert!(result_json(true, 7, 0, &END_TO_END, &nan).is_err());
}

#[test]
fn seeded_loads_are_reproducible_and_do_not_bend_the_bar() {
    for w in WORKLOADS {
        let a = Instance::new(w, 11);
        let b = Instance::new(w, 11);
        let c = Instance::new(w, 12);
        assert_eq!(a.problem.loads, b.problem.loads, "{}", w.name);
        assert_ne!(a.problem.loads, c.problem.loads, "{}", w.name);

        let dm = &a.problem.dof_map;
        let coords = a.problem.as_problem().coords3();
        let mid = |k: usize| {
            let (lo, hi) = coords.iter().fold((f64::MAX, f64::MIN), |(lo, hi), x| {
                (lo.min(x[k]), hi.max(x[k]))
            });
            0.5 * (lo + hi)
        };
        let (ymid, zmid) = (mid(1), mid(2));
        let (mut fx, mut my, mut mz, mut transverse) = (0.0, 0.0, 0.0, 0.0);
        for (n, x) in coords.iter().enumerate() {
            let f = a.problem.loads[dm.dof(n, 0)];
            fx += f;
            my += f * (x[1] - ymid);
            mz += f * (x[2] - zmid);
            for c in 1..dm.dofs_per_node() {
                transverse += a.problem.loads[dm.dof(n, c)].abs();
            }
        }
        assert!((0.5..1.5).contains(&fx), "{}: total pull {fx}", w.name);
        assert_eq!(transverse, 0.0, "{}", w.name);
        assert!(
            my.abs() < 1e-9 && mz.abs() < 1e-9,
            "{}: moments {my} {mz}",
            w.name
        );
    }
}

#[test]
fn zero_iteration_budget_is_a_failed_solve_not_a_fast_one() {
    let inst = Instance::new(workload::find("hex-rdd-direct").expect("workload"), 1);

    let setup = inst.solve(0, None, None);
    let reason = gate::check_solve(&inst.reference, &setup.outcome)
        .expect_err("a zero-budget session must fail the solve gate");
    assert!(reason.contains("not converged"), "{reason}");
    // The same session is a valid set-up measurement.
    gate::check_setup(&setup.outcome).expect("set-up session");

    let full = inst.solve(MAX_ITERS, None, None);
    let passed = gate::check_solve(&inst.reference, &full.outcome).expect("full solve passes");
    assert!(passed.iterations > 0);
    assert!(passed.true_rel_res <= MAX_TRUE_REL_RES);
    // A full solve is not a valid set-up measurement.
    assert!(gate::check_setup(&full.outcome).is_err());
}
