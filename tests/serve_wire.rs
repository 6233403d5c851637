//! The analyzer's JSON is spliced into `polysig-serve` responses verbatim
//! (`Json::Raw`), without being re-parsed on its way out. These tests pin
//! that the splice is safe: every `AnalysisReport::to_json()` document
//! parses with the wire codec, and renders byte-identically to a
//! parse-and-render round trip (same escaping rules, same member order),
//! so the wire bytes are what a full re-serialization would produce.

use std::sync::Arc;

use polysig::analyze::{
    analyze_program, analyze_with_scenario, Diagnostic, LintCode, ProveOptions,
};
use polysig::lang::{check_program, Endochrony};
use polysig::serve::proto::{Outcome, Response, Served};
use polysig::serve::Json;
use polysig::sim::Scenario;

const PIPE: &str = "process P { input a: int; output x: int; x := a + 1; }\n\
     process Q { input x: int; output y: int; y := x * 2; }\n";

/// Strings that exercise every escaping rule next to multibyte text.
fn hostile_texts() -> Vec<String> {
    let controls: String = (0u8..0x20).map(char::from).collect();
    vec![
        "plain".into(),
        "a \"quoted\" name".into(),
        "back\\slash \\\" and \\\\".into(),
        format!("controls {controls} end"),
        "tab\there\r\nnewline\u{7f}".into(),
        "déjà vu € 𝄞 — ünïcödé \u{2028}\u{feff}".into(),
        "é\"€\\𝄞\n\u{1}".into(),
        String::new(),
    ]
}

fn assert_splice_safe(text: &str) {
    let parsed = Json::parse(text).unwrap_or_else(|e| panic!("{e}: {text:?}"));
    assert_eq!(parsed.render(), text, "render(parse(x)) must be x");
}

#[test]
fn analyzer_json_with_hostile_diagnostics_parses_and_rerenders_identically() {
    let program = check_program(PIPE).expect("pipe resolves");
    let mut report = analyze_program(&program);
    assert!(report.deployment.is_some(), "the deployment verdict is rendered too");
    let texts = hostile_texts();
    for (i, message) in texts.iter().enumerate() {
        let suggestion = &texts[(i + 1) % texts.len()];
        let component = &texts[(i + 2) % texts.len()];
        let mut d = Diagnostic::new(LintCode::ALL[i % LintCode::ALL.len()], message.clone())
            .suggest(suggestion.clone());
        d.component = Some(component.clone());
        if i % 2 == 0 {
            d.waived = Some(message.clone());
        }
        report.diagnostics.push(d);
        // object keys are escaped too (component names key the verdicts)
        report.endochrony.insert(component.clone(), Endochrony::Endochronous);
        assert_splice_safe(&report.to_json());
    }
    // and the spliced response document as a whole
    let resp = Response::new(4, Served::Hit, Arc::new(Outcome::Analysis(report)));
    let doc = resp.to_json();
    assert_splice_safe(&doc);
    let parsed = Json::parse(&doc).unwrap();
    let diags = match parsed.get("payload").and_then(|p| p.get("diagnostics")) {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("no diagnostics array: {other:?}"),
    };
    let messages: Vec<&str> =
        diags.iter().filter_map(|d| d.get("message").and_then(Json::as_str)).collect();
    for text in &texts {
        assert!(messages.contains(&text.as_str()), "message {text:?} lost in transit");
    }
}

#[test]
fn shipped_programs_analyze_to_splice_safe_json() {
    let mut seen = 0;
    for entry in std::fs::read_dir("programs").expect("programs/") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("sig") {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("read program");
        let Ok(program) = check_program(&source) else { continue };
        assert_splice_safe(&analyze_program(&program).to_json());
        let scn = path.with_extension("scn");
        if let Ok(text) = std::fs::read_to_string(&scn) {
            if let Ok(s) = Scenario::from_text(&text) {
                let report = analyze_with_scenario(&program, &s, &ProveOptions::default());
                assert_splice_safe(&report.to_json());
            }
        }
        seen += 1;
    }
    assert!(seen > 0, "no programs analyzed");
}
