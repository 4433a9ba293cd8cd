//! Properties of the shared JSON module: random value trees survive
//! `render` → `parse_json` unchanged whatever their strings hold, and
//! parsing stays linear in the document's length however its bytes are
//! split into strings.

use hetchol_core::json::{parse_json, JsonValue};
use proptest::prelude::*;
use proptest::TestRng;
use std::time::{Duration, Instant};

/// Characters the string escaper treats specially, plus one of each
/// UTF-8 length.
const SPECIAL: [char; 14] = [
    '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', 'a', 'é', '€', '😀',
];

/// Random strings: each char is a special one or a random scalar of 1,
/// 2, 3 or 4 UTF-8 bytes.
struct Text;

impl Strategy for Text {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let len = (0usize..12).sample(rng);
        (0..len)
            .map(|_| {
                let scalar = match (0u8..5).sample(rng) {
                    0 => return SPECIAL[(0..SPECIAL.len()).sample(rng)],
                    1 => (0u32..0x80).sample(rng),
                    2 => (0x80u32..0x800).sample(rng),
                    3 => (0x800u32..0x10000).sample(rng),
                    _ => (0x10000u32..0x110000).sample(rng),
                };
                char::from_u32(scalar).unwrap_or('\u{fffd}')
            })
            .collect()
    }
}

/// Random value trees at most `depth` containers deep.
struct Tree {
    depth: u32,
}

impl Strategy for Tree {
    type Value = JsonValue;
    fn sample(&self, rng: &mut TestRng) -> JsonValue {
        let kinds = if self.depth == 0 { 4 } else { 6 };
        let child = Tree {
            depth: self.depth.saturating_sub(1),
        };
        match (0u8..kinds).sample(rng) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool((0u8..2).sample(rng) == 1),
            2 if (0u8..2).sample(rng) == 0 => JsonValue::uint((0u64..1 << 53).sample(rng)),
            2 => JsonValue::Num((-1e12f64..1e12).sample(rng)),
            3 => JsonValue::Str(Text.sample(rng)),
            4 => JsonValue::Arr(
                (0..(0usize..5).sample(rng))
                    .map(|_| child.sample(rng))
                    .collect(),
            ),
            _ => JsonValue::Obj(
                (0..(0usize..5).sample(rng))
                    .map(|_| (Text.sample(rng), child.sample(rng)))
                    .collect(),
            ),
        }
    }
}

/// `s` with every char written as a `\u` escape, astral chars as
/// surrogate pairs.
fn all_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        out.push_str(&format!("\\u{unit:04x}"));
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_trees_round_trip_through_render(v in Tree { depth: 4 }) {
        let text = v.render();
        let parsed = parse_json(&text).map_err(|e| format!("{e} in {text}"))?;
        prop_assert_eq!(&parsed, &v);
        prop_assert_eq!(parsed.render(), text);
    }

    #[test]
    fn escaped_utf16_decodes_to_the_same_string(s in Text) {
        prop_assert_eq!(parse_json(&all_escaped(&s)), Ok(JsonValue::Str(s)));
    }
}

/// Parse `text` and return how long it took. Each document below takes
/// minutes at quadratic cost and tens of milliseconds at linear cost;
/// the budget only catches the former.
fn timed_parse(text: &str) -> (JsonValue, Duration) {
    let t = Instant::now();
    let v = parse_json(text).expect("document parses");
    (v, t.elapsed())
}

const BUDGET: Duration = Duration::from_secs(20);

#[test]
fn one_long_string_parses_in_linear_time() {
    let body = "abc é € 😀 ".repeat((4 << 20) / 16);
    assert_eq!(body.len(), 4 << 20);
    let text = JsonValue::Arr(vec![JsonValue::str(&body), JsonValue::str("\"tail\"")]).render();
    let (v, took) = timed_parse(&text);
    assert!(took < BUDGET, "a {} B string took {took:?}", body.len());
    assert_eq!(v.as_arr().unwrap()[0].as_str().unwrap(), body);
}

#[test]
fn a_million_short_strings_parse_in_linear_time() {
    let items: Vec<JsonValue> = (0..1_000_000)
        .map(|i| JsonValue::str(format!("k{i}é\"")))
        .collect();
    let text = JsonValue::Arr(items).render();
    let (v, took) = timed_parse(&text);
    assert!(
        took < BUDGET,
        "1e6 strings ({} B) took {took:?}",
        text.len()
    );
    let items = v.as_arr().unwrap();
    assert_eq!(items.len(), 1_000_000);
    assert_eq!(items[999_999].as_str().unwrap(), "k999999é\"");
}
