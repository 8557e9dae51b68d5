//! The benchmark's own tests, on tiny sizes: the metric list agrees with
//! `BENCHMARK.json`, every workload passes its correctness gate, the
//! digest of simulated counts repeats exactly, and the run context names
//! the commit.

use ede_util::obs::json::{self, Json};
use perfbench::{commit_at, run, source_digest, Sizes, Workload, END_TO_END, PER_LAYER};
use std::path::Path;
use std::time::Duration;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("metric field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric on a result line.
fn printed(line: &str) -> Vec<(String, String)> {
    let doc = json::parse(line).expect("result line parses");
    doc.get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn declared_metrics_match_the_code() {
    let doc = benchmark_json();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn tiny_runs_pass_the_gate_and_print_every_metric_with_its_unit() {
    let doc = benchmark_json();
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = run(w, 7, Duration::ZERO, trace, &Sizes::tiny());
            assert!(report.gate.attempted > 0, "{w:?}: the gate checked nothing");
            assert_eq!(
                report.gate.failures,
                Vec::<String>::new(),
                "{w:?} trace={trace}"
            );
            let line = perfbench::result_line(&report);
            let key = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(printed(&line), declared(&doc, key), "{w:?} trace={trace}");
        }
    }
}

#[test]
fn digests_repeat_across_runs_and_tracing() {
    for w in Workload::ALL {
        let a = run(w, 11, Duration::ZERO, false, &Sizes::tiny());
        let b = run(w, 11, Duration::ZERO, false, &Sizes::tiny());
        let traced = run(w, 11, Duration::ZERO, true, &Sizes::tiny());
        assert_eq!(a.digest, b.digest, "{w:?}");
        let traced = traced.layers.map(|l| l.digest);
        assert_eq!(traced, Some(a.digest), "{w:?}: the traced pass's outputs");
        let other = run(w, 12, Duration::ZERO, false, &Sizes::tiny());
        assert_ne!(a.digest, other.digest, "{w:?}: the seed changes the inputs");
    }
}

#[test]
fn commit_is_read_through_loose_and_packed_refs() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("commit_at");
    let git = root.join(".git");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(commit_at(&root), None, "no checkout, no commit");
    let (a, b) = ("a".repeat(40), "0123456789abcdef0123456789abcdef01234567");
    std::fs::create_dir_all(git.join("refs/heads")).unwrap();
    std::fs::write(git.join("HEAD"), format!("{b}\n")).unwrap();
    assert_eq!(commit_at(&root).as_deref(), Some(b), "detached HEAD");
    std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
    std::fs::write(
        git.join("packed-refs"),
        format!("# pack-refs with: peeled\n{b} refs/heads/mainline\n{a} refs/heads/main\n"),
    )
    .unwrap();
    assert_eq!(commit_at(&root), Some(a.clone()), "packed ref");
    std::fs::write(git.join("refs/heads/main"), format!("{b}\n")).unwrap();
    assert_eq!(commit_at(&root).as_deref(), Some(b), "loose ref wins");
    std::fs::write(git.join("HEAD"), "ref: refs/heads/gone\n").unwrap();
    assert_eq!(commit_at(&root), None, "dangling ref");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn source_digest_follows_the_source() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    assert_eq!(source_digest(root), source_digest(root));
    assert_ne!(source_digest(root), source_digest(&root.join("crates")));
}
