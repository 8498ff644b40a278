//! A minimal JSON object writer that prints every float losslessly.
//!
//! Floats go through Rust's `Display` for `f64`, which prints the
//! shortest decimal that parses back to the same bits and never uses an
//! exponent, so the text is always a valid JSON number. A fixed-digit
//! format would publish a 1% loss rate as `0.0`.

/// Builds one JSON object, field by field, in insertion order.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a float field.
    ///
    /// # Panics
    ///
    /// Panics on NaN or an infinity, which JSON cannot represent: a
    /// metric that is not a finite number is a bug in the benchmark.
    pub fn num(self, key: &str, v: f64) -> Obj {
        self.raw(key, &num(v))
    }

    pub fn int(self, key: &str, v: u64) -> Obj {
        self.raw(key, &v.to_string())
    }

    pub fn bool(self, key: &str, v: bool) -> Obj {
        self.raw(key, if v { "true" } else { "false" })
    }

    pub fn str(self, key: &str, v: &str) -> Obj {
        self.raw(key, &string(v))
    }

    /// Adds a field whose value is already JSON text.
    pub fn raw(mut self, key: &str, json: &str) -> Obj {
        self.fields.push((string(key), json.to_string()));
        self
    }

    pub fn build(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{k}: {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Shortest round-trip text of a finite float.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "JSON cannot carry the non-finite value {v}");
    format!("{v}")
}

/// A quoted, escaped JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_bit_for_bit() {
        let values = [
            0.01,
            0.05,
            3.212,
            1.0 / 3.0,
            2.0f64.sqrt(),
            1e-9,
            123_456_789.123_456_78,
            5e-324,
            f64::MAX,
            0.1 + 0.2,
            -0.0,
        ];
        for v in values {
            let text = num(v);
            assert!(!text.contains(['e', 'E']), "{text} is not plain decimal");
            let back: f64 = text.parse().expect("printed float parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?} printed as {text}");
        }
    }

    #[test]
    fn one_percent_loss_is_not_rounded_away() {
        assert_eq!(num(0.01), "0.01");
        assert_eq!(Obj::new().num("loss", 0.01).build(), r#"{"loss": 0.01}"#);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_is_refused() {
        num(f64::NAN);
    }
}
