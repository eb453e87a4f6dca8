//! Property tests for the JSON parser's failure behavior.
//!
//! Every durable artifact in the workspace (store entries, dead-letter
//! queues) is parsed by `dlp_common::json` after surviving
//! whatever a crash or a faulty disk left behind, so the parser's
//! contract under damage is load-bearing: arbitrary garbage, truncated
//! documents, and bit-flipped bytes must all come back as `Err` — and
//! must never panic, loop, or return a value for a damaged document.

use std::collections::BTreeMap;

use dlp_common::json;
use proptest::collection::vec;
use proptest::prelude::*;

/// Object documents with predictable shape: serialization of a string
/// -> integer map, like the store's own records in miniature.
fn object_doc() -> impl Strategy<Value = String> {
    vec((0u8..26, 0u8..26, any::<i64>()), 0..8).prop_map(|fields| {
        let map: BTreeMap<String, i64> = fields
            .into_iter()
            .map(|(a, b, v)| {
                (format!("{}{}", (b'a' + a) as char, (b'a' + b) as char), v)
            })
            .collect();
        json::to_string(&map)
    })
}

proptest! {
    /// Arbitrary printable text never panics the parser; it returns a
    /// `Result` either way.
    #[test]
    fn arbitrary_text_never_panics(bytes in vec(32u8..127, 0..256)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = json::parse(&text);
    }

    /// Arbitrary raw bytes, lossily decoded (the shape damaged files
    /// actually arrive in), never panic the parser either.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// A well-formed object document parses, and every strict prefix —
    /// every possible torn write — is rejected, never misread.
    #[test]
    fn truncated_documents_are_rejected(doc in object_doc(), cut in 0usize..1024) {
        prop_assert!(json::parse(&doc).is_ok());
        let mut at = cut % doc.len();
        while !doc.is_char_boundary(at) {
            at -= 1;
        }
        if at < doc.len() {
            prop_assert!(
                json::parse(&doc[..at]).is_err(),
                "strict prefix {:?} of {:?} parsed",
                &doc[..at],
                doc
            );
        }
    }

    /// One flipped bit anywhere in a document must not panic, and a
    /// damaged document either fails to parse or parses to *some*
    /// value reachable from the damaged text — never an out-of-band
    /// state. (Detecting the damage at all is the sealed-line digest's
    /// job, one layer up in the store.)
    #[test]
    fn bit_flips_never_panic(doc in object_doc(), pos in any::<usize>(), bit in 0u8..8) {
        let mut bytes = doc.into_bytes();
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Deep nesting terminates with an answer instead of blowing the
    /// stack: the parser bounds its recursion at `MAX_DEPTH`.
    #[test]
    fn deep_nesting_terminates(depth in 1usize..2048) {
        let doc = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        prop_assert_eq!(json::parse(&doc).is_ok(), depth <= json::MAX_DEPTH);
    }
}

/// A million unclosed arrays, or a million nested objects, come back as
/// `Err` rather than overflowing the stack.
#[test]
fn million_deep_documents_are_rejected() {
    assert!(json::parse(&"[".repeat(1_000_000)).is_err());
    assert!(json::parse(&r#"{"a":"#.repeat(1_000_000)).is_err());
}

/// Nesting up to the bound still parses, in both container kinds.
#[test]
fn nesting_at_the_bound_parses() {
    let depth = json::MAX_DEPTH;
    assert_eq!(depth, 128);
    let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(json::parse(&arrays).is_ok());
    let objects = format!("{}1{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
    assert!(json::parse(&objects).is_ok());
    let too_deep = format!("[{arrays}]");
    assert!(json::parse(&too_deep).is_err());
}

/// A long string of multi-byte characters with every kind of escape
/// mixed in (quote, backslash, short escapes, `\u` for control bytes)
/// round-trips exactly.
#[test]
fn long_multibyte_strings_round_trip() {
    let piece = "héllo → 世界 🦀 \"quoted\" back\\slash\ttab\nline\u{1}";
    let text = piece.repeat(4096);
    let doc = json::to_string(&text);
    assert!(doc.contains("\\u0001") && doc.len() > 200_000);
    assert_eq!(json::parse(&doc).expect("parses").as_str(), Some(text.as_str()));
}

/// A `\u` escape takes exactly four hex digits: a sign, which integer
/// parsing would accept, is a bad escape.
#[test]
fn signed_unicode_escapes_are_rejected() {
    for doc in [r#""\u+041""#, r#""\u-041""#] {
        let err = json::parse(doc).expect_err(doc);
        assert!(err.to_string().contains("bad \\u escape"), "{doc}: {err}");
    }
    assert_eq!(json::parse(r#""\u0041""#).expect("parses").as_str(), Some("A"));
}
