//! Seeded no-panic suite for the three text inputs: instance text
//! (`parse_instance`), scenario and serve specs (`ScenarioSpec::from_json`)
//! and serve feeds (`parse_feed`). Every mutated input must come back as
//! `Ok` or `Err`, never as a panic. Inputs are parsed only, never built
//! or run: a mutated spec may be valid and very large.

use lr_graph::parse::parse_instance;
use lr_scenario::{parse_feed, ScenarioSpec};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const EXAMPLES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");

/// Values at the edges of the integer types the inputs are parsed into.
const EXTREMES: [&str; 8] = [
    "0",
    "1",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "-1",
    "1e30",
    "0.5",
];

/// A node id at the edge of the u32 id space, or a random one.
fn node_id(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..6u32) {
        0 => "0".to_string(),
        1 => "1".to_string(),
        2 => "2".to_string(),
        3 => "4294967294".to_string(),
        4 => "4294967295".to_string(),
        _ if rng.gen_bool(0.5) => rng.gen_range(0..8u32).to_string(),
        _ => rng.gen_range(0..=u32::MAX).to_string(),
    }
}

/// Byte spans of the number tokens of a JSON text (outside strings).
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let (mut spans, mut in_string, mut i) = (Vec::new(), false, 0);
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                i += 1;
            }
            spans.push((start, i));
            continue;
        }
        i += 1;
    }
    spans
}

/// Replaces one or two number tokens of `text` with extreme values.
fn mutate_numbers(text: &str, rng: &mut SmallRng) -> String {
    let spans = number_spans(text);
    if spans.is_empty() {
        return text.to_string();
    }
    let mut picked: Vec<(usize, usize)> = (0..rng.gen_range(1..=2usize))
        .map(|_| spans[rng.gen_range(0..spans.len())])
        .collect();
    picked.sort_unstable();
    picked.dedup();
    let mut out = text.to_string();
    for &(start, end) in picked.iter().rev() {
        out.replace_range(start..end, EXTREMES[rng.gen_range(0..EXTREMES.len())]);
    }
    out
}

/// Runs `parse` on `input`, failing the case with the input on a panic.
fn parses_without_panic<T, E>(
    input: &str,
    parse: fn(&str) -> Result<T, E>,
) -> Result<(), TestCaseError> {
    std::panic::catch_unwind(|| {
        let _ = parse(input);
    })
    .map_err(|_| TestCaseError::fail(format!("panicked on:\n{input}")))
}

/// The shipped spec files: every scenario and serve example.
fn shipped_specs() -> Vec<String> {
    let mut specs = Vec::new();
    for dir in ["scenarios", "serve"] {
        let dir = format!("{EXAMPLES}/{dir}");
        for entry in std::fs::read_dir(&dir).expect("examples directory exists") {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                specs.push(std::fs::read_to_string(&path).expect("readable spec"));
            }
        }
    }
    specs.sort();
    specs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Instance text with ids at the edges of the u32 space, plus an
    /// occasional malformed line.
    #[test]
    fn instance_text_never_panics(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut text = format!("dest {}\n", node_id(&mut rng));
        for _ in 0..rng.gen_range(0..6usize) {
            let (u, v) = (node_id(&mut rng), node_id(&mut rng));
            text += &match rng.gen_range(0..8u32) {
                0 => format!("{u} > {v} > {u}\n"),
                1 => format!("{u} >\n"),
                _ => format!("{u} > {v}\n"),
            };
        }
        parses_without_panic(&text, parse_instance)?;
    }

    /// Every shipped spec with one or two numbers replaced by an extreme.
    #[test]
    fn mutated_specs_never_panic(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for text in shipped_specs() {
            parses_without_panic(&mutate_numbers(&text, &mut rng), ScenarioSpec::from_json)?;
        }
    }

    /// The demo feed with one or two numbers of one line replaced.
    #[test]
    fn mutated_feed_lines_never_panic(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let feed = std::fs::read_to_string(format!("{EXAMPLES}/serve/feed_demo.ndjson"))
            .expect("demo feed exists");
        let mut lines: Vec<String> = feed.lines().map(str::to_string).collect();
        let k = rng.gen_range(0..lines.len());
        lines[k] = mutate_numbers(&lines[k], &mut rng);
        parses_without_panic(&lines.join("\n"), parse_feed)?;
    }
}
