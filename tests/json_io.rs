//! `desim::json` is the one parser behind traces, record documents,
//! `--resume` caches, grid/fault specs and placement files. These
//! checks pin the three things its users rely on: parsing is linear in
//! the input, the checked-in documents re-emit byte for byte, and no
//! input (truncated, mutated or hostile) makes it panic.

use std::hint::black_box;
use std::time::Instant;

use sar_repro::desim::{Json, SmallRng};

const CORPUS: [&str; 3] = [
    "table1_baseline.json",
    "rda_corner_turn.json",
    "autotune_report.json",
];

fn corpus(name: &str) -> String {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Seconds one parse of `text` takes (dropping the value is not timed).
fn parse_time(text: &str) -> f64 {
    let start = Instant::now();
    let value = black_box(Json::parse(black_box(text)).unwrap());
    let elapsed = start.elapsed().as_secs_f64();
    drop(value);
    elapsed
}

/// One string of `bytes` bytes, with a multi-byte char and an escape
/// every few dozen plain bytes.
fn one_long_string(bytes: usize) -> String {
    let mut text = String::from("\"");
    while text.len() < bytes {
        text.push_str("plain ascii run of some length λ \\n tab\\t ");
    }
    text.push('"');
    text
}

/// An array of short strings totalling `bytes` bytes.
fn many_short_strings(bytes: usize) -> String {
    let mut text = String::from("[");
    while text.len() < bytes {
        text.push_str("\"ab\",\"cλ\",\"d\\\"e\",");
    }
    text.push_str("\"end\"]");
    text
}

#[test]
fn doubling_the_input_at_most_doubles_parse_time() {
    const MB: usize = 1 << 20;
    for (shape, make) in [
        ("one long string", one_long_string as fn(usize) -> String),
        ("many short strings", many_short_strings),
    ] {
        let (small, large) = (make(MB), make(2 * MB));
        // Fastest of several interleaved repeats, so a burst of load
        // from elsewhere hits both sizes alike; a noisy host gets up to
        // three tries. Linear gives ~2x; the quadratic string scan this
        // replaces gave ~4x on every try.
        let mut best = (f64::INFINITY, 1.0, f64::INFINITY);
        for _ in 0..3 {
            let (mut t1, mut t2) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..9 {
                t1 = t1.min(parse_time(&small));
                t2 = t2.min(parse_time(&large));
            }
            if t2 / t1 < best.0 {
                best = (t2 / t1, t1, t2);
            }
            if best.0 <= 2.5 {
                break;
            }
        }
        let (ratio, t1, t2) = best;
        assert!(
            ratio <= 2.5,
            "{shape}: 1 MB parses in {:.2} ms, 2 MB in {:.2} ms ({ratio:.2}x)",
            t1 * 1e3,
            t2 * 1e3
        );
    }
}

#[test]
fn checked_in_documents_reemit_byte_for_byte() {
    for name in CORPUS {
        let text = corpus(name);
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            doc.to_string_pretty() == text,
            "{name}: parse + to_string_pretty does not reproduce the file"
        );
    }
}

/// Parse `text`; a panic fails the test with the case named.
fn parse_is_total(text: &str, case: &str) {
    match std::panic::catch_unwind(|| Json::parse(text)) {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => assert!(
            e.offset <= text.len(),
            "{case}: offset {} past end",
            e.offset
        ),
        Err(_) => panic!("{case}: Json::parse panicked"),
    }
}

#[test]
fn truncated_and_mutated_documents_parse_or_fail_without_panicking() {
    const TOKENS: [&str; 16] = [
        "\"", "\\", "[", "]", "{", "}", ",", ":", "-", "e", "0", "\\u", "\\ud83d", "λ", " ", "",
    ];
    let mut rng = SmallRng::seed_from_u64(13);
    for name in CORPUS {
        let text = corpus(name);
        for i in 0..100 {
            let mut cut = rng.gen_index(0..text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            parse_is_total(&text[..cut], &format!("{name} truncation {i} at {cut}"));
        }
        for i in 0..200 {
            let mut mutated = text.clone();
            for _ in 0..1 + rng.gen_index(0..3) {
                let mut at = rng.gen_index(0..mutated.len());
                while !mutated.is_char_boundary(at) {
                    at -= 1;
                }
                let token = TOKENS[rng.gen_index(0..TOKENS.len())];
                // Replace the char at `at` with the token (an empty
                // token deletes it).
                let end = at + mutated[at..].chars().next().map_or(0, char::len_utf8);
                mutated.replace_range(at..end, token);
            }
            parse_is_total(&mutated, &format!("{name} mutation {i}"));
        }
    }
    for (case, hostile) in [
        ("deep arrays", "[".repeat(200_000)),
        ("deep objects", "{\"a\":".repeat(100_000)),
        ("signed hex", "\"\\u+041\"".to_string()),
        ("lone surrogate", "\"\\ud83d\"".to_string()),
    ] {
        parse_is_total(&hostile, case);
        assert!(Json::parse(&hostile).is_err(), "{case} must be rejected");
    }
    assert_eq!(
        Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
        Some("\u{1F600}")
    );
}
