//! Property tests of the request-line codec: whatever strings go into
//! `format_request` come back out of `parse_request` byte for byte.

use proptest::prelude::*;

use nanobound_service::proto::{format_request, parse_request, Request};

/// String pieces weighted toward what the escaper and the decoder must
/// get right, drawn next to each other.
#[rustfmt::skip]
const PIECES: &[&str] = &[
    // Every character the escaper rewrites, alone and paired.
    "\"", "\"", "\"", "\\", "\\", "\\", "/", "/", "\\\"", "\"\\",
    // Control characters.
    "\u{0}", "\u{1}", "\n", "\r", "\t", "\u{8}", "\u{c}", "\u{1f}", "\u{7f}",
    // 2-, 3- and 4-byte UTF-8, astral planes included.
    "é", "ß", "\u{80}", "\u{7ff}", "€", "\u{800}", "\u{fffd}", "\u{ffff}", "\u{e000}",
    "😀", "𝄞", "\u{10000}", "\u{10ffff}",
    // Text that looks like an escape, and JSON punctuation.
    "\\u0041", "\\ud83d", "\\n", "a", "Z", "0", " ", ",", "[", "]", "{", "}", ":",
];

/// Concatenated pieces; none is `?`, so the reserved id never comes up.
fn hostile_string() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..40)
        .prop_map(|pieces| pieces.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_strings_roundtrip_byte_for_byte(
        id in hostile_string(),
        workload in hostile_string(),
        args in prop::collection::vec(hostile_string(), 0..6),
    ) {
        let line = format_request(&id, &workload, &args);
        prop_assert!(!line.contains('\n'), "a request must stay one line: {line:?}");
        prop_assert_eq!(parse_request(&line), Ok(Request { id, workload, args }), "line {:?}", line);
    }
}
