//! Benchmark-artifact guard: validates `BENCH_sim.json`,
//! `BENCH_optimize.json`, `BENCH_analyze.json`, `BENCH_robust.json`,
//! `BENCH_scale.json` and `BENCH_serve.json` so the committed artifacts
//! cannot silently go stale or corrupt.
//!
//! The bench binaries assert their own invariants at generation time,
//! but the *committed* artifacts are edited, rebased and merged like any
//! other file — this guard re-checks them on every CI run:
//!
//! * every `"bit_identical"` field must be `true`;
//! * every numeric field must parse as a **finite** `f64` — a recorded
//!   `NaN`/`inf` ratio (e.g. a zero-denominator eval reduction) fails
//!   the build instead of shipping as a quietly meaningless number;
//! * each file must contain at least one `bit_identical` field and one
//!   numeric field, so an emptied/truncated artifact cannot pass by
//!   vacuity;
//! * wherever an artifact records a `guided_backtracks` /
//!   `unguided_backtracks` pair, guided must not exceed unguided — a
//!   committed artifact claiming SCOAP guidance made PODEM *worse* on
//!   the tracked set is a regression, not a measurement;
//! * every `"unrecovered"` field (the chaos sweep's silent-result-loss
//!   counter in `BENCH_robust.json`) must be exactly `0` — an artifact
//!   recording an unrecovered fail-point injection fails the build;
//! * in the simulation artifact (recognized by its `event_w1_node_evals`
//!   fields — only `bench_sim` emits them), every `"eval_reduction"`
//!   must be at least `1.0` — an engine doing *more* gate evaluations
//!   than the dense baseline on any circuit is a regression, not a
//!   trade-off — and on the `c6288ish` multiplier row (the least sparse
//!   circuit, the paper's hardest case) it must exceed `1.3`; a
//!   non-smoke artifact (`"smoke": false`) must
//!   contain a `c6288ish` row at all, so the floor cannot be dodged by
//!   deleting the row — the CI smoke configuration runs a reduced
//!   circuit set and is exempt from row presence only.  Other
//!   artifacts reuse the `eval_reduction` key for different metrics
//!   (e.g. COP evals per optimizer run) with their own scales, so the
//!   floors deliberately do not apply there;
//! * in the serving artifact (recognized by its `warm_over_cold`
//!   fields — only `bench_serve` emits them), every `"warm_over_cold"`
//!   ratio must be at least `1.0` — a resident server answering primed
//!   queries *slower* than cold ones means the shared engine cache is
//!   broken — and a non-smoke artifact must have a row for each of
//!   [`COLD_TRACKED`] with `"cold_qps"` at or above [`COLD_QPS_FLOOR`],
//!   an absolute bound on cold-query latency (the redundancy proof's
//!   screen made the cold path fast enough that a warm/cold ratio no
//!   longer measures amortization; the bound fails every pre-screen
//!   artifact, which recorded 32–68 cold queries/s); the
//!   `"eco_eval_reduction"` field (overlay evals vs cold recompute, a
//!   machine-independent counter) must be at least `2.0` non-smoke and
//!   `1.0` in the smoke configuration;
//! * in the optimizer artifact (recognized by its `improvement_factor`
//!   fields — only `bench_optimize` emits them), every
//!   `"improvement_factor"` (the paper's headline: the test-length
//!   reduction of optimized weights over equiprobable inputs) must
//!   exceed `1.0`, smoke included; a non-smoke artifact must also keep
//!   each tracked circuit at or above its floor (the committed values
//!   rounded down to two significant figures, [`IMPROVEMENT_FLOORS`])
//!   and must contain a row for each of them, so no floor can be dodged
//!   by deleting the row;
//! * `"bytes_per_gate"` values (the scale sweep's memory headline in
//!   `BENCH_scale.json`, rows ordered by increasing circuit size) must
//!   stay flat or decrease — each row may exceed its predecessor by at
//!   most 5% (name strings grow a digit at larger sizes); a rising curve
//!   means a superlinear term crept into the flat circuit core;
//! * in the scale artifact (recognized by its `target_gates` fields —
//!   only `bench_scale` emits them), every non-smoke row must record the
//!   redundancy proof ([`SCALE_REDUNDANCY_FIELDS`]), so the proof's cost
//!   at 10^4 to 10^6 gates cannot drop out of the sweep unnoticed.
//!
//! Run with `cargo run --release -p wrt-bench --bin bench_guard --
//! [FILE ...]`; with no arguments it checks the two default artifacts in
//! the current directory.  Exits non-zero with one line per violation.
//!
//! The scanner is a minimal JSON key/value walker (the workspace has no
//! JSON dependency by design): it tokenizes `"key": value` pairs,
//! ignores strings and structural characters, and classifies every bare
//! value token.  That is sufficient — and strict — for the flat
//! numeric/boolean schema the bench writers emit: any bare token that is
//! neither a finite number nor `true`/`false`/`null` (so `NaN`,
//! `Infinity`, `-inf`, or plain corruption) is a violation.

use std::process::ExitCode;

/// Per-circuit floors on the optimizer artifact's `improvement_factor`
/// outside smoke runs: the committed values rounded down to two
/// significant figures.
const IMPROVEMENT_FLOORS: [(&str, f64); 4] = [
    ("c2670ish", 1.1e3),
    ("c5315ish", 7.4),
    ("c6288ish", 16.0),
    ("c7552ish", 4.0e6),
];

/// Fields every non-smoke `BENCH_scale.json` row must carry.
const SCALE_REDUNDANCY_FIELDS: [&str; 3] = [
    "redundancy_seconds",
    "redundancy_enumerated_lines",
    "redundant",
];

/// The serving artifact's tracked circuits and their cold-query floor:
/// at least 250 cold `estimate` queries per second, i.e. at most 4 ms
/// for a flushed registry to rebuild the circuit, its proven fault list
/// and the COP baseline and answer over a socket.
const COLD_TRACKED: [&str; 3] = ["c880ish", "c2670ish", "c5315ish"];
const COLD_QPS_FLOOR: f64 = 250.0;

/// One `"key": <bare value>` occurrence found in the artifact.
struct BareValue {
    key: String,
    value: String,
    line: usize,
    /// The most recent `"circuit": "<name>"` string value seen before
    /// this token — the benchmark row this value belongs to (rows lead
    /// with their circuit name).  Empty outside any row.
    circuit: String,
}

/// Extracts every key whose value is a bare (unquoted) token.  String
/// values are skipped (they are prose notes or names); nested
/// objects/arrays recurse naturally because only `"key": token` pairs
/// are matched.
fn bare_values(text: &str) -> Vec<BareValue> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut current_key: Option<String> = None;
    let mut current_circuit = String::new();
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'"' => {
                // Scan a string literal (the schema emits no escapes,
                // but skip over backslash pairs defensively).
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\\' {
                        j += 1;
                    }
                    j += 1;
                }
                let literal = text.get(start..j).unwrap_or("").to_string();
                i = (j + 1).min(bytes.len());
                // A string followed by ':' is a key; otherwise it is a
                // string value and closes any open key.
                let mut k = i;
                while k < bytes.len() && (bytes[k] == b' ' || bytes[k] == b'\t') {
                    k += 1;
                }
                if k < bytes.len() && bytes[k] == b':' {
                    current_key = Some(literal);
                    i = k + 1;
                } else {
                    if current_key.as_deref() == Some("circuit") {
                        current_circuit = literal;
                    }
                    current_key = None;
                }
            }
            b'{' | b'}' | b'[' | b']' | b',' | b':' | b' ' | b'\t' | b'\r' => {
                i += 1;
            }
            _ => {
                // A bare token: number, boolean, null, or corruption.
                let start = i;
                while i < bytes.len()
                    && !matches!(
                        bytes[i],
                        b',' | b'}' | b']' | b'\n' | b' ' | b'\t' | b'\r'
                    )
                {
                    i += 1;
                }
                let token = text[start..i].to_string();
                // Keyless bare tokens (array elements, or structural
                // corruption) are validated too, under a placeholder
                // key — nothing slips past the guard unclassified.
                let key = current_key
                    .take()
                    .unwrap_or_else(|| "(array element)".to_string());
                out.push(BareValue {
                    key,
                    value: token,
                    line,
                    circuit: current_circuit.clone(),
                });
            }
        }
    }
    out
}

/// Validates one artifact; returns human-readable violations.
fn check_artifact(path: &str, text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let values = bare_values(text);
    let mut bit_identical_fields = 0usize;
    let mut numeric_fields = 0usize;
    let mut guided: Vec<(f64, usize)> = Vec::new();
    let mut unguided: Vec<(f64, usize)> = Vec::new();
    let mut bytes_per_gate: Vec<(f64, usize)> = Vec::new();
    // The simulation artifact is the one with event-at-W=1 eval counts;
    // the eval-reduction floors below apply only to it (other artifacts
    // reuse the `eval_reduction` key for differently-scaled metrics).
    let is_sim_artifact = values.iter().any(|v| v.key == "event_w1_node_evals");
    // The serving artifact leads with warm-over-cold ratios; only
    // `bench_serve` emits that key.
    let is_serve_artifact = values.iter().any(|v| v.key == "warm_over_cold");
    let is_smoke = values
        .iter()
        .any(|v| v.key == "smoke" && v.value == "true");
    let mut saw_c6288_row = false;
    let mut floored_rows: Vec<&str> = Vec::new();
    let mut cold_rows: Vec<&str> = Vec::new();
    // Scale rows lead with `target_gates`: the keys seen in each row.
    let mut scale_rows: Vec<(usize, Vec<&str>)> = Vec::new();
    for v in &values {
        if v.key == "target_gates" {
            scale_rows.push((v.line, Vec::new()));
        } else if let Some((_, keys)) = scale_rows.last_mut() {
            keys.push(v.key.as_str());
        }
        // Simulation eval-reduction floor: the event headline must beat
        // the dense baseline on every circuit, and clear 1.3x on the
        // c6288ish multiplier.
        if is_sim_artifact && v.key == "eval_reduction" {
            let hard_row = v.circuit.starts_with("c6288");
            saw_c6288_row |= hard_row;
            if let Ok(x) = v.value.parse::<f64>() {
                if x < 1.0 {
                    violations.push(format!(
                        "{path}:{}: \"{}\" is {x} on {} — engine evaluates more gates than dense",
                        v.line, v.key, v.circuit
                    ));
                } else if hard_row && x <= 1.3 {
                    violations.push(format!(
                        "{path}:{}: \"{}\" is {x} on {} — below the 1.3 multiplier floor",
                        v.line, v.key, v.circuit
                    ));
                }
            }
        }
        // The paper's headline: optimized weights must shorten the test
        // on every row, and by at least the floor on tracked circuits.
        if v.key == "improvement_factor" {
            if let Ok(x) = v.value.parse::<f64>() {
                let floor = IMPROVEMENT_FLOORS
                    .iter()
                    .find(|(name, _)| *name == v.circuit)
                    .filter(|_| !is_smoke);
                if let Some((name, _)) = floor {
                    floored_rows.push(name);
                }
                if x <= 1.0 {
                    violations.push(format!(
                        "{path}:{}: \"improvement_factor\" is {x} on {} — optimized weights do not shorten the test",
                        v.line, v.circuit
                    ));
                } else if let Some(&(_, min)) = floor.filter(|&&(_, min)| x < min) {
                    violations.push(format!(
                        "{path}:{}: \"improvement_factor\" is {x} on {} — below its {min} floor",
                        v.line, v.circuit
                    ));
                }
            }
        }
        // Serving floors: warm must never lose to cold, a cold query
        // must stay under its latency bound, and the ECO overlay must
        // beat the cold recompute it replaces.
        if v.key == "warm_over_cold" {
            if let Ok(x) = v.value.parse::<f64>() {
                if x < 1.0 {
                    violations.push(format!(
                        "{path}:{}: \"warm_over_cold\" is {x} on {} — warm served queries slower than cold",
                        v.line, v.circuit
                    ));
                }
            }
        }
        if is_serve_artifact && !is_smoke && v.key == "cold_qps" {
            if let Some(name) = COLD_TRACKED.iter().find(|&&name| name == v.circuit) {
                cold_rows.push(name);
            }
            if let Ok(x) = v.value.parse::<f64>() {
                if x < COLD_QPS_FLOOR {
                    violations.push(format!(
                        "{path}:{}: \"cold_qps\" is {x} on {} — below the {COLD_QPS_FLOOR} cold-query floor",
                        v.line, v.circuit
                    ));
                }
            }
        }
        if v.key == "eco_eval_reduction" {
            let floor = if is_smoke { 1.0 } else { 2.0 };
            if let Ok(x) = v.value.parse::<f64>() {
                if x < floor {
                    violations.push(format!(
                        "{path}:{}: \"eco_eval_reduction\" is {x} on {} — below the {floor} overlay floor",
                        v.line, v.circuit
                    ));
                }
            }
        }
        if v.key == "bytes_per_gate" {
            if let Ok(x) = v.value.parse::<f64>() {
                bytes_per_gate.push((x, v.line));
            }
        }
        if v.key == "guided_backtracks" || v.key == "unguided_backtracks" {
            if let Ok(x) = v.value.parse::<f64>() {
                if v.key == "guided_backtracks" {
                    guided.push((x, v.line));
                } else {
                    unguided.push((x, v.line));
                }
            }
        }
        if v.key == "bit_identical" {
            bit_identical_fields += 1;
            if v.value != "true" {
                violations.push(format!(
                    "{path}:{}: \"bit_identical\" is `{}` — a recorded engine divergence",
                    v.line, v.value
                ));
            }
            continue;
        }
        if v.key == "unrecovered" && v.value.parse::<f64>() != Ok(0.0) {
            violations.push(format!(
                "{path}:{}: \"unrecovered\" is `{}` — a recorded unrecovered fail-point injection",
                v.line, v.value
            ));
            continue;
        }
        match v.value.as_str() {
            "true" | "false" | "null" => {}
            token => match token.parse::<f64>() {
                Ok(x) if x.is_finite() => numeric_fields += 1,
                _ => violations.push(format!(
                    "{path}:{}: \"{}\" is `{token}` — not a finite number",
                    v.line, v.key
                )),
            },
        }
    }
    if is_serve_artifact && !is_smoke {
        for name in COLD_TRACKED {
            if !cold_rows.contains(&name) {
                violations.push(format!(
                    "{path}: serving artifact has no {name} row — cold-query floor dodged"
                ));
            }
        }
    }
    if !is_smoke {
        for (line, keys) in &scale_rows {
            for field in SCALE_REDUNDANCY_FIELDS {
                if !keys.contains(&field) {
                    violations.push(format!(
                        "{path}:{line}: scale row has no \"{field}\" — redundancy proof dropped from the sweep"
                    ));
                }
            }
        }
    }
    if is_sim_artifact && !is_smoke && !saw_c6288_row {
        violations.push(format!(
            "{path}: simulation artifact has no c6288ish row — multiplier floor dodged"
        ));
    }
    let is_optimize_artifact = values.iter().any(|v| v.key == "improvement_factor");
    if is_optimize_artifact && !is_smoke {
        for (name, _) in IMPROVEMENT_FLOORS {
            if !floored_rows.contains(&name) {
                violations.push(format!(
                    "{path}: optimizer artifact has no {name} row — improvement floor dodged"
                ));
            }
        }
    }
    if bit_identical_fields == 0 {
        violations.push(format!(
            "{path}: no \"bit_identical\" field at all — truncated or wrong artifact"
        ));
    }
    if numeric_fields == 0 {
        violations.push(format!("{path}: no numeric fields — empty artifact"));
    }
    // Guidance pairing: rows emit the two keys together and in order, so
    // the i-th guided value belongs to the i-th unguided one.
    if guided.len() == unguided.len() {
        for (&(g, line), &(u, _)) in guided.iter().zip(&unguided) {
            if g > u {
                violations.push(format!(
                    "{path}:{line}: guided_backtracks {g} exceeds unguided_backtracks {u} — guidance regression"
                ));
            }
        }
    } else {
        violations.push(format!(
            "{path}: {} guided_backtracks vs {} unguided_backtracks fields — unpaired rows",
            guided.len(),
            unguided.len()
        ));
    }
    // Scale-sweep memory curve: rows are ordered by increasing circuit
    // size, so each bytes/gate value may exceed its predecessor by at
    // most 5% (names gain a digit as instance counts grow); more than
    // that means a superlinear memory term.
    for pair in bytes_per_gate.windows(2) {
        let ((prev, _), (next, line)) = (pair[0], pair[1]);
        if next > prev * 1.05 {
            violations.push(format!(
                "{path}:{line}: bytes_per_gate rose {prev} -> {next} (>5%) — superlinear memory term"
            ));
        }
    }
    violations
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let files: Vec<String> = if args.is_empty() {
        vec![
            "BENCH_sim.json".into(),
            "BENCH_optimize.json".into(),
            "BENCH_analyze.json".into(),
            "BENCH_robust.json".into(),
            "BENCH_scale.json".into(),
            "BENCH_serve.json".into(),
        ]
    } else {
        args
    };
    let mut violations = Vec::new();
    for path in &files {
        match std::fs::read_to_string(path) {
            Ok(text) => violations.extend(check_artifact(path, &text)),
            Err(e) => violations.push(format!("{path}: unreadable: {e}")),
        }
    }
    if violations.is_empty() {
        println!("bench artifacts OK: {}", files.join(", "));
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("bench_guard: {v}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_artifact_passes() {
        let text = "{\n  \"note\": \"prose with NaN inside a string\",\n  \"results\": [\n    { \"eval_reduction\": 3.25, \"bit_identical\": true }\n  ]\n}\n";
        assert!(check_artifact("x.json", text).is_empty());
    }

    #[test]
    fn false_bit_identity_is_flagged() {
        let text = "{ \"eval_reduction\": 1.0, \"bit_identical\": false }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("bit_identical"));
    }

    #[test]
    fn nan_and_inf_ratios_are_flagged() {
        for bad in ["NaN", "inf", "-inf", "Infinity"] {
            let text =
                format!("{{ \"speedup\": {bad}, \"bit_identical\": true, \"x\": 1.0 }}");
            let v = check_artifact("x.json", &text);
            assert_eq!(v.len(), 1, "token {bad}: {v:?}");
            assert!(v[0].contains("speedup"), "token {bad}");
        }
    }

    #[test]
    fn keyless_tokens_inside_arrays_are_still_validated() {
        let text = "{ \"xs\": [1.0, NaN, 2.0], \"bit_identical\": true }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("NaN"));
    }

    #[test]
    fn empty_or_gutted_artifacts_cannot_pass_by_vacuity() {
        let v = check_artifact("x.json", "{}");
        assert_eq!(v.len(), 2);
        let v = check_artifact("x.json", "{ \"bit_identical\": true }");
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("numeric"));
    }

    #[test]
    fn guidance_regressions_are_flagged() {
        let ok = "{ \"guided_backtracks\": 32, \"unguided_backtracks\": 50, \"bit_identical\": true }";
        assert!(check_artifact("x.json", ok).is_empty());
        let tie = "{ \"guided_backtracks\": 16, \"unguided_backtracks\": 16, \"bit_identical\": true }";
        assert!(check_artifact("x.json", tie).is_empty());
        let bad = "{ \"guided_backtracks\": 51, \"unguided_backtracks\": 50, \"bit_identical\": true }";
        let v = check_artifact("x.json", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("guidance regression"));
    }

    #[test]
    fn unpaired_guidance_rows_are_flagged() {
        let text = "{ \"guided_backtracks\": 32, \"bit_identical\": true, \"x\": 1.0 }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("unpaired"));
    }

    #[test]
    fn unrecovered_injections_are_flagged() {
        let ok = "{ \"unrecovered\": 0, \"bit_identical\": true, \"x\": 1.0 }";
        assert!(check_artifact("x.json", ok).is_empty());
        for bad in ["1", "3.0", "NaN"] {
            let text = format!(
                "{{ \"unrecovered\": {bad}, \"bit_identical\": true, \"x\": 1.0 }}"
            );
            let v = check_artifact("x.json", &text);
            assert_eq!(v.len(), 1, "value {bad}: {v:?}");
            assert!(v[0].contains("unrecovered"), "value {bad}");
        }
    }

    #[test]
    fn sub_unity_eval_reductions_are_flagged() {
        let text = "{ \"results\": [ { \"circuit\": \"s1\", \"event_w1_node_evals\": 10, \"eval_reduction\": 0.97, \"bit_identical\": true }, { \"circuit\": \"c6288ish\", \"event_w1_node_evals\": 10, \"eval_reduction\": 1.9, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("more gates than dense"));
        assert!(v[0].contains("s1"));
    }

    #[test]
    fn sim_artifacts_keep_their_floors_without_the_retired_2d_fields() {
        // The simulation artifact is recognized by a field its 1D rows
        // keep, so neither floor can go vacuous.
        let sub_unity = "{ \"smoke\": false, \"results\": [ { \"circuit\": \"c6288ish\", \"event_w1_node_evals\": 852241, \"eval_reduction\": 0.97, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", sub_unity);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("more gates than dense"));
        let no_multiplier = "{ \"smoke\": false, \"results\": [ { \"circuit\": \"c880ish\", \"event_w1_node_evals\": 1000, \"eval_reduction\": 2.5, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", no_multiplier);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no c6288ish row"));
    }

    #[test]
    fn c6288ish_multiplier_floor_is_enforced() {
        // 1.2 is fine on an ordinary circuit but below the 1.3 floor on
        // the multiplier row.
        let ok = "{ \"results\": [ { \"circuit\": \"c880ish\", \"event_w1_node_evals\": 10, \"eval_reduction\": 1.2, \"bit_identical\": true }, { \"circuit\": \"c6288ish\", \"event_w1_node_evals\": 10, \"eval_reduction\": 1.35, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", ok).is_empty());
        let bad = "{ \"results\": [ { \"circuit\": \"c6288ish\", \"event_w1_node_evals\": 10, \"eval_reduction\": 1.2, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("1.3 multiplier floor"));
        assert!(v[0].contains("eval_reduction"));
    }

    #[test]
    fn deleting_the_c6288ish_row_cannot_dodge_the_floor() {
        let text = "{ \"smoke\": false, \"results\": [ { \"circuit\": \"s1\", \"event_w1_node_evals\": 10, \"eval_reduction\": 6.0, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no c6288ish row"));
    }

    #[test]
    fn smoke_artifacts_need_no_c6288ish_row_but_keep_the_floors() {
        // The CI smoke set (s1, c880ish) has no multiplier row; row
        // presence is waived, the >= 1.0 floor is not.
        let ok = "{ \"smoke\": true, \"results\": [ { \"circuit\": \"c880ish\", \"event_w1_node_evals\": 10, \"eval_reduction\": 1.1, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", ok).is_empty());
        let bad = "{ \"smoke\": true, \"results\": [ { \"circuit\": \"c880ish\", \"event_w1_node_evals\": 10, \"eval_reduction\": 0.9, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("more gates than dense"));
    }

    #[test]
    fn null_dense_fields_on_derived_rows_pass() {
        // The 120k-gate scale row derives its dense baseline and emits
        // null wall-clock fields; the guard must accept them.
        let text = "{ \"results\": [ { \"circuit\": \"tiled_120000_7\", \"dense_seconds\": null, \"wall_speedup\": null, \"event_w1_node_evals\": 10, \"eval_reduction\": 4.2, \"bit_identical\": true }, { \"circuit\": \"c6288ish\", \"event_w1_node_evals\": 10, \"eval_reduction\": 1.9, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", text).is_empty());
    }

    #[test]
    fn flat_or_decreasing_bytes_per_gate_passes() {
        let text = "{ \"rows\": [ { \"bytes_per_gate\": 54.1, \"bit_identical\": true }, { \"bytes_per_gate\": 54.0, \"bit_identical\": true }, { \"bytes_per_gate\": 53.5, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", text).is_empty());
    }

    #[test]
    fn small_bytes_per_gate_creep_within_tolerance_passes() {
        // 53.5 -> 54.8 over the sweep is ~2.4% total, well under the
        // 5% per-step bound (names gaining a digit).
        let text = "{ \"rows\": [ { \"bytes_per_gate\": 53.5, \"bit_identical\": true }, { \"bytes_per_gate\": 54.8, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", text).is_empty());
    }

    #[test]
    fn superlinear_bytes_per_gate_growth_is_flagged() {
        let text = "{ \"rows\": [ { \"bytes_per_gate\": 54.0, \"bit_identical\": true }, { \"bytes_per_gate\": 60.0, \"bit_identical\": true } ] }";
        let v = check_artifact("x.json", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("superlinear memory term"));
    }

    #[test]
    fn scale_rows_must_record_the_redundancy_proof() {
        let row = |extra: &str| {
            format!("{{ \"target_gates\": 10000, \"bytes_per_gate\": 54.0, {extra}\"bit_identical\": true }}")
        };
        let full = row("\"redundancy_seconds\": 0.01, \"redundancy_enumerated_lines\": 10, \"redundant\": 0, ");
        let ok = format!("{{ \"smoke\": false, \"results\": [ {full}, {full} ] }}");
        assert!(check_artifact("x.json", &ok).is_empty());
        // One row without the proof fields fails, once per field.
        let bare = row("");
        let missing = format!("{{ \"smoke\": false, \"results\": [ {full}, {bare} ] }}");
        let v = check_artifact("x.json", &missing);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|m| m.contains("redundancy proof dropped")));
        // Smoke sweeps are exempt from row presence.
        let smoke = format!("{{ \"smoke\": true, \"results\": [ {bare} ] }}");
        assert!(check_artifact("x.json", &smoke).is_empty());
    }

    /// A serving artifact with one `(circuit, warm_over_cold, cold_qps)`
    /// row each, plus an ECO section.
    fn serve_artifact(smoke: bool, rows: &[(&str, f64, f64)], eco_reduction: f64) -> String {
        let rows: Vec<String> = rows
            .iter()
            .map(|(name, ratio, cold)| {
                format!("{{ \"circuit\": \"{name}\", \"cold_qps\": {cold}, \"warm_over_cold\": {ratio}, \"bit_identical\": true }}")
            })
            .collect();
        format!(
            "{{ \"smoke\": {smoke}, \"results\": [ {} ], \"eco\": {{ \"circuit\": \"c5315ish\", \"eco_eval_reduction\": {eco_reduction}, \"bit_identical\": true }} }}",
            rows.join(", ")
        )
    }

    #[test]
    fn warm_over_cold_floors_are_enforced() {
        // A full-run serving artifact needs every tracked circuit at or
        // above the cold-query floor and no row below 1x warm/cold.
        let ok = serve_artifact(
            false,
            &[("c880ish", 2.4, 1100.0), ("c2670ish", 1.8, 900.0), ("c5315ish", 1.4, 480.0)],
            3.0,
        );
        assert!(check_artifact("x.json", &ok).is_empty());
        let slow = serve_artifact(
            false,
            &[("c880ish", 0.8, 1100.0), ("c2670ish", 3.5, 900.0), ("c5315ish", 4.0, 480.0)],
            3.0,
        );
        let v = check_artifact("x.json", &slow);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("slower than cold"));
        assert!(v[0].contains("c880ish"));
        // The committed pre-screen cold rates (32–68 q/s) fail the bound
        // however large their warm/cold ratio.
        let old = serve_artifact(
            false,
            &[("c880ish", 170.9, 38.5), ("c2670ish", 31.4, 68.3), ("c5315ish", 55.0, 32.7)],
            3.0,
        );
        let v = check_artifact("x.json", &old);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|m| m.contains("cold-query floor")));
        // Deleting a tracked row cannot dodge the floor.
        let thin = serve_artifact(false, &[("c880ish", 2.4, 1100.0), ("c2670ish", 1.8, 900.0)], 3.0);
        let v = check_artifact("x.json", &thin);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no c5315ish row"));
    }

    #[test]
    fn smoke_serve_artifacts_skip_the_headline_but_keep_the_floor() {
        // The CI smoke run uses other circuits and fewer reps: the cold
        // bound and row presence are waived, warm >= cold is not.
        let ok = serve_artifact(true, &[("s1", 1.2, 40.0)], 3.0);
        assert!(check_artifact("x.json", &ok).is_empty());
        let bad = serve_artifact(true, &[("s1", 0.9, 40.0)], 3.0);
        let v = check_artifact("x.json", &bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("slower than cold"));
    }

    #[test]
    fn eco_eval_reduction_floor_scales_with_smoke() {
        let rows = [("c880ish", 2.4, 1100.0), ("c2670ish", 1.8, 900.0), ("c5315ish", 1.4, 480.0)];
        let full = serve_artifact(false, &rows, 1.5);
        let v = check_artifact("x.json", &full);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("overlay floor"));
        // The same 1.5 passes in the smoke configuration (floor 1.0).
        let smoke = serve_artifact(true, &rows, 1.5);
        assert!(check_artifact("x.json", &smoke).is_empty());
        let negative = serve_artifact(true, &rows, 0.5);
        let v = check_artifact("x.json", &negative);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("overlay floor"));
    }

    /// A non-smoke optimizer artifact with one row per floored circuit.
    fn optimize_artifact(factors: [f64; 4]) -> String {
        let rows: Vec<String> = IMPROVEMENT_FLOORS
            .iter()
            .zip(factors)
            .map(|((name, _), f)| {
                format!("{{ \"circuit\": \"{name}\", \"improvement_factor\": {f}, \"bit_identical\": true }}")
            })
            .collect();
        format!("{{ \"smoke\": false, \"results\": [ {} ] }}", rows.join(", "))
    }

    #[test]
    fn improvement_factor_floors_reject_rows_below_them() {
        let committed = [1133.586, 7.497, 16.133, 4021383.872];
        assert!(check_artifact("x.json", &optimize_artifact(committed)).is_empty());
        for (row, low) in [(0, 1090.0), (1, 7.3), (2, 15.9), (3, 3.9e6)] {
            let mut factors = committed;
            factors[row] = low;
            let v = check_artifact("x.json", &optimize_artifact(factors));
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].contains("floor"), "{v:?}");
            assert!(v[0].contains(IMPROVEMENT_FLOORS[row].0), "{v:?}");
        }
    }

    #[test]
    fn improvement_factor_must_exceed_one_even_in_smoke() {
        let ok = "{ \"smoke\": true, \"results\": [ { \"circuit\": \"s1\", \"improvement_factor\": 1.4, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", ok).is_empty());
        for bad in ["1.0", "0.5"] {
            let text = ok.replace("1.4", bad);
            let v = check_artifact("x.json", &text);
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].contains("do not shorten the test"), "{v:?}");
        }
        // Smoke runs use other circuits: the per-circuit floors and row
        // presence are waived there, the > 1 rule is not.
        let smoke_low = "{ \"smoke\": true, \"results\": [ { \"circuit\": \"c5315ish\", \"improvement_factor\": 2.0, \"bit_identical\": true } ] }";
        assert!(check_artifact("x.json", smoke_low).is_empty());
    }

    #[test]
    fn deleting_an_optimize_row_cannot_dodge_its_floor() {
        let full = optimize_artifact([1133.586, 7.497, 16.133, 4021383.872]);
        let without_c6288 = full.replace("c6288ish", "c880ish");
        let v = check_artifact("x.json", &without_c6288);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no c6288ish row"), "{v:?}");
    }

    #[test]
    fn committed_artifacts_are_clean() {
        // The repository's own artifacts must satisfy the guard; the
        // test runs from the crate directory, so walk up to the root.
        for name in [
            "BENCH_sim.json",
            "BENCH_optimize.json",
            "BENCH_analyze.json",
            "BENCH_robust.json",
            "BENCH_scale.json",
            "BENCH_serve.json",
        ] {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(name);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let v = check_artifact(name, &text);
            assert!(v.is_empty(), "{name}: {v:?}");
        }
    }
}
