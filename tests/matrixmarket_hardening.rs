//! MatrixMarket reader hardening: truncation, corruption and lying-count
//! sweeps, plus pinned cases for every syntax feature the reader accepts.
//!
//! Every mutation must yield `Ok` or a typed `MmError`, never a panic, and
//! on ASCII input the single-pass reader must agree exactly — entries,
//! error variant, message and line number — with `reference`, the
//! line-by-line reader it replaced. The sweeps cut and flip one small
//! document that carries comments, blank lines, CRLF, tabs and signed
//! indices, so every branch of the scanner sees broken input.

use sparsedist::core::compress::Coo;
use sparsedist::gen::matrixmarket::{self, MmError};

/// The line-by-line reader `parse` replaced, kept as the reference for
/// the equivalence sweeps (its separators are Unicode whitespace).
fn reference(text: &str) -> Result<Coo, MmError> {
    let err = |line: usize, reason: String| MmError::Parse { line, reason };
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| err(1, "empty document".into()))?;
    let h: Vec<&str> = header.split_whitespace().collect();
    if h.len() != 5 || !h[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(err(
            1,
            "expected '%%MatrixMarket matrix coordinate <field> <symmetry>'".into(),
        ));
    }
    if !h[1].eq_ignore_ascii_case("matrix") || !h[2].eq_ignore_ascii_case("coordinate") {
        return Err(MmError::Unsupported(format!("{} {}", h[1], h[2])));
    }
    let field = h[3].to_ascii_lowercase();
    if !matches!(field.as_str(), "real" | "integer" | "pattern") {
        return Err(MmError::Unsupported(format!("field '{field}'")));
    }
    let symmetry = h[4].to_ascii_lowercase();
    if !matches!(symmetry.as_str(), "general" | "symmetric") {
        return Err(MmError::Unsupported(format!("symmetry '{symmetry}'")));
    }
    let mut size = None;
    for (i, line) in lines.by_ref() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(err(i + 1, "size line must be 'rows cols nnz'".into()));
        }
        let count = |k: usize, what: &str| {
            parts[k]
                .parse::<usize>()
                .map_err(|_| err(i + 1, format!("bad {what} count")))
        };
        size = Some((count(0, "row")?, count(1, "col")?, count(2, "nnz")?));
        break;
    }
    let (rows, cols, nnz) = size.ok_or_else(|| err(0, "missing size line".into()))?;
    let mut coo = Coo::new(rows, cols);
    let mut seen = 0usize;
    for (i, line) in lines {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        let want = if field == "pattern" { 2 } else { 3 };
        if parts.len() != want {
            return Err(err(i + 1, format!("entry must have {want} fields")));
        }
        let r: usize = parts[0]
            .parse()
            .map_err(|_| err(i + 1, "bad row index".into()))?;
        let c: usize = parts[1]
            .parse()
            .map_err(|_| err(i + 1, "bad col index".into()))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(err(
                i + 1,
                format!("index ({r},{c}) out of 1..={rows} x 1..={cols}"),
            ));
        }
        let v: f64 = if field == "pattern" {
            1.0
        } else {
            parts[2]
                .parse()
                .map_err(|_| err(i + 1, "bad value".into()))?
        };
        coo.push(r - 1, c - 1, v);
        if symmetry == "symmetric" && r != c {
            coo.push(c - 1, r - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(err(
            0,
            format!("header promised {nnz} entries, found {seen}"),
        ));
    }
    Ok(coo)
}

/// A comparable rendering of a parse result: the shape and entries with
/// values as bits (so NaN compares equal to itself), or the error.
fn outcome(r: &Result<Coo, MmError>) -> String {
    match r {
        Ok(coo) => {
            let entries: Vec<(usize, usize, u64)> = coo
                .entries()
                .iter()
                .map(|&(r, c, v)| (r, c, v.to_bits()))
                .collect();
            format!("{}x{} {entries:?}", coo.rows(), coo.cols())
        }
        Err(e) => format!("{e:?}"),
    }
}

fn assert_agrees(text: &str) {
    let got = matrixmarket::parse(text);
    let want = reference(text);
    assert_eq!(outcome(&got), outcome(&want), "document: {text:?}");
}

/// One small document with every feature the sweeps should break: a
/// mid-body comment, a blank line, CRLF, tabs, a `+`-signed index and
/// exponent/`inf` values.
const DOC: &str = "%%MatrixMarket matrix coordinate real general\n\
                   % leading comment\n\
                   4 5 6\r\n\
                   1 1 1.5\n\
                   \n\
                   2\t3\t-2.5e-3\r\n\
                   % mid-body comment\n\
                   +3 +5 inf\n\
                   \t 4 2 1E2 \n\
                   4 4 -0\n\
                   1 5 7";

#[test]
fn the_fixture_parses() {
    let coo = matrixmarket::parse(DOC).unwrap();
    assert_eq!((coo.rows(), coo.cols()), (4, 5));
    assert_eq!(
        coo.entries(),
        &[
            (0, 0, 1.5),
            (1, 2, -2.5e-3),
            (2, 4, f64::INFINITY),
            (3, 1, 100.0),
            (3, 3, -0.0),
            (0, 4, 7.0),
        ]
    );
    assert_agrees(DOC);
}

#[test]
fn truncation_at_every_byte_boundary_agrees() {
    for end in 0..=DOC.len() {
        assert_agrees(&DOC[..end]);
    }
}

#[test]
fn single_byte_corruption_at_every_offset_agrees() {
    let replacements = b"x \t\r\n%+-.e019";
    for at in 0..DOC.len() {
        for &b in replacements {
            let mut bytes = DOC.as_bytes().to_vec();
            bytes[at] = b;
            let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            assert_agrees(&text);
        }
    }
    // Non-ASCII whitespace is a separator only to the reference, so these
    // are not compared; they must still parse or fail typed.
    for at in 0..=DOC.len() {
        let _ = matrixmarket::parse(&format!("{}\u{a0}{}", &DOC[..at], &DOC[at..]));
    }
}

#[test]
fn lying_header_counts_are_typed_errors() {
    let body = "1 1 1.0\n2 2 2.0\n";
    for size in [
        "2 2 0",
        "2 2 1",
        "2 2 3",
        "2 2 18446744073709551615",
        "2 2 18446744073709551616",
        "1 1 2",
        "3000000000 3000000000 2",
        "18446744073709551615 18446744073709551615 2",
    ] {
        let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n{body}");
        assert_agrees(&text);
    }
    // A header count far beyond the bytes present reserves nothing large.
    let err =
        matrixmarket::parse("%%MatrixMarket matrix coordinate real general\n2 2 999999999999\n")
            .unwrap_err();
    assert!(err.to_string().contains("promised 999999999999"), "{err}");
}

/// Parse `body` under a `real general` header and return the error's line
/// and reason.
fn parse_error(header: &str, body: &str) -> (usize, String) {
    let text = format!("%%MatrixMarket matrix coordinate {header}\n{body}");
    assert_agrees(&text);
    match matrixmarket::parse(&text) {
        Err(MmError::Parse { line, reason }) => (line, reason),
        other => panic!("expected a parse error for {text:?}, got {other:?}"),
    }
}

#[test]
fn pinned_errors_carry_their_line_numbers() {
    let cases: [(&str, &str, usize, &str); 10] = [
        ("real general", "% c\n\n2 2\n", 4, "size line must be"),
        ("real general", "x 2 1\n", 2, "bad row count"),
        (
            "real general",
            "2 2 1\n% c\n\n1 1\n",
            5,
            "must have 3 fields",
        ),
        (
            "real general",
            "2 2 1\n1 1 1.0 9\n",
            3,
            "must have 3 fields",
        ),
        (
            "pattern general",
            "2 2 1\n1 1 1.0\n",
            3,
            "must have 2 fields",
        ),
        ("real general", "2 2 1\r\n-1 1 1.0\r\n", 3, "bad row index"),
        ("real general", "2 2 1\n1 ++1 1.0\n", 3, "bad col index"),
        ("real general", "2 2 1\n1\t3\t1.0\n", 3, "out of 1..=2 x"),
        (
            "real general",
            "2 2 2\n1 1 1\n\n2 2 1.0.0\n",
            5,
            "bad value",
        ),
        ("integer general", "2 2 1\n1 1 1\n1 2 2\n", 0, "found 2"),
    ];
    for (header, body, line, reason) in cases {
        let (got_line, got_reason) = parse_error(header, body);
        assert_eq!(got_line, line, "{body:?}");
        assert!(got_reason.contains(reason), "{body:?}: {got_reason}");
    }
}

#[test]
fn pinned_variants_parse() {
    let pattern = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n+2 2\n";
    let symmetric = "%%MatrixMarket matrix coordinate integer symmetric\n3 3 2\n1 1 5\n3 1 -7\n";
    for text in [pattern, symmetric] {
        assert_agrees(text);
    }
    let coo = matrixmarket::parse(pattern).unwrap();
    assert_eq!(coo.entries(), &[(0, 0, 1.0), (1, 1, 1.0)]);
    let coo = matrixmarket::parse(symmetric).unwrap();
    assert_eq!(coo.entries(), &[(0, 0, 5.0), (2, 0, -7.0), (0, 2, -7.0)]);
}

#[test]
fn non_ascii_whitespace_is_not_a_separator() {
    // Behaviour change from the line-by-line reader: U+00A0 used to split
    // fields and now belongs to the token, which then fails to parse.
    let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u{a0}1 1.0\n";
    assert!(reference(text).is_ok());
    match matrixmarket::parse(text) {
        Err(MmError::Parse { line: 3, reason }) => {
            assert_eq!(reason, "entry must have 3 fields");
        }
        other => panic!("expected a typed parse error on line 3, got {other:?}"),
    }
    let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\u{a0}\n";
    assert!(reference(text).is_ok());
    match matrixmarket::parse(text) {
        Err(MmError::Parse { line: 3, reason }) => assert_eq!(reason, "bad value"),
        other => panic!("expected a typed parse error on line 3, got {other:?}"),
    }
}
