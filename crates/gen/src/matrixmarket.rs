//! MatrixMarket coordinate-format I/O.
//!
//! The paper motivates its sparse-ratio assumptions with the
//! Harwell–Boeing Sparse Matrix Collection; its successor ecosystem
//! distributes matrices in the MatrixMarket exchange format, which this
//! module reads and writes (`matrix coordinate real general`, 1-based
//! indices, `%` comments).

use sparsedist_core::compress::Coo;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Error from parsing or writing a MatrixMarket stream.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem in the text, with a line number (1-based).
    Parse {
        /// 1-based line number (0 for document-level problems).
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// Header describes a format this reader does not support.
    Unsupported(String),
}

impl fmt::Display for MmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "i/o error: {e}"),
            MmError::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
            MmError::Unsupported(what) => write!(f, "unsupported MatrixMarket variant: {what}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(line: usize, reason: impl Into<String>) -> MmError {
    MmError::Parse {
        line,
        reason: reason.into(),
    }
}

/// The `field` of a `matrix coordinate` header.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// `real` or `integer`: every entry carries a value.
    Valued,
    /// `pattern`: entries carry no value and read as 1.0.
    Pattern,
}

/// Bytes that separate fields within a line: the ASCII whitespace other
/// than the line feed that ends the line. Non-ASCII whitespace is not a
/// separator.
fn is_sep(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0B | 0x0C)
}

/// The separator-delimited tokens of one line.
fn tokens(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| u8::try_from(c).is_ok_and(is_sep))
        .filter(|t| !t.is_empty())
}

/// A forward-only cursor over the document's bytes that knows which
/// 1-based line it is on.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Scanner<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    /// The rest of the current line, without its line feed.
    fn rest_of_line(&self) -> &'a str {
        let rest = &self.bytes()[self.pos..];
        let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        // The cut sits on an ASCII byte or the end, so it is a char boundary.
        self.text.get(self.pos..self.pos + len).unwrap_or("")
    }

    /// Step past the current line's line feed (or to the end of text).
    fn next_line(&mut self) {
        self.pos += self.rest_of_line().len();
        if self.pos < self.text.len() {
            self.pos += 1;
            self.line += 1;
        }
    }

    /// Step over separators within the current line.
    fn skip_seps(&mut self) {
        let bytes = self.bytes();
        while self.pos < bytes.len() && is_sep(bytes[self.pos]) {
            self.pos += 1;
        }
    }

    /// Skip blank and `%` comment lines. Returns false at the end of the
    /// text, true with the cursor on the first token of a content line.
    fn content_line(&mut self) -> bool {
        loop {
            self.skip_seps();
            match self.bytes().get(self.pos) {
                None => return false,
                Some(b'\n' | b'%') => self.next_line(),
                Some(_) => return true,
            }
        }
    }

    /// Step over one token, returning its byte range.
    fn token(&mut self) -> (usize, usize) {
        let start = self.pos;
        let bytes = self.bytes();
        while self.pos < bytes.len() && bytes[self.pos] != b'\n' && !is_sep(bytes[self.pos]) {
            self.pos += 1;
        }
        (start, self.pos)
    }

    /// Step over one token, reading it as `usize::from_str` would: an
    /// optional `+`, then one or more ASCII digits, without overflow.
    /// `None` if the token is not such a number.
    fn index(&mut self) -> Option<usize> {
        let (start, end) = self.token();
        let digits = match self.bytes().get(start) {
            Some(b'+') => &self.bytes()[start + 1..end],
            _ => &self.bytes()[start..end],
        };
        if digits.is_empty() {
            return None;
        }
        digits.iter().try_fold(0usize, |acc, &b| {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                return None;
            }
            acc.checked_mul(10)?.checked_add(usize::from(digit))
        })
    }
}

/// Parse a MatrixMarket `coordinate real general` document.
///
/// `pattern` matrices get value 1.0 per entry; `symmetric` matrices are
/// expanded (the mirrored entry is materialised). `integer` values are
/// accepted as reals.
///
/// The reader makes one pass over the bytes. Lines end at `\n`; fields
/// are separated by runs of ASCII whitespace (space, tab, CR, VT, FF).
/// Other whitespace, such as U+00A0, is part of a token, so a field
/// holding it fails to parse with a typed [`MmError::Parse`]. Indices
/// accept exactly what `usize::from_str` accepts; values are read by
/// `f64::from_str`.
pub fn parse(text: &str) -> Result<Coo, MmError> {
    if text.is_empty() {
        return Err(parse_err(1, "empty document"));
    }
    let mut sc = Scanner {
        text,
        pos: 0,
        line: 1,
    };

    let h: Vec<&str> = tokens(sc.rest_of_line()).collect();
    if h.len() != 5 || !h[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(parse_err(
            1,
            "expected '%%MatrixMarket matrix coordinate <field> <symmetry>'",
        ));
    }
    if !h[1].eq_ignore_ascii_case("matrix") || !h[2].eq_ignore_ascii_case("coordinate") {
        return Err(MmError::Unsupported(format!("{} {}", h[1], h[2])));
    }
    let field = match h[3].to_ascii_lowercase().as_str() {
        "real" | "integer" => Field::Valued,
        "pattern" => Field::Pattern,
        other => return Err(MmError::Unsupported(format!("field '{other}'"))),
    };
    let symmetric = match h[4].to_ascii_lowercase().as_str() {
        "general" => false,
        "symmetric" => true,
        other => return Err(MmError::Unsupported(format!("symmetry '{other}'"))),
    };
    sc.next_line();

    // Size line: first non-comment line.
    if !sc.content_line() {
        return Err(parse_err(0, "missing size line"));
    }
    let line = sc.line;
    let size: Vec<&str> = tokens(sc.rest_of_line()).collect();
    if size.len() != 3 {
        return Err(parse_err(line, "size line must be 'rows cols nnz'"));
    }
    let rows: usize = size[0]
        .parse()
        .map_err(|_| parse_err(line, "bad row count"))?;
    let cols: usize = size[1]
        .parse()
        .map_err(|_| parse_err(line, "bad col count"))?;
    let nnz: usize = size[2]
        .parse()
        .map_err(|_| parse_err(line, "bad nnz count"))?;
    sc.next_line();

    let want = match field {
        Field::Valued => 3,
        Field::Pattern => 2,
    };
    // The header count is untrusted: never reserve more entries than the
    // remaining bytes could hold (each field and its separator take at
    // least two bytes; the last line may lack its line feed).
    let most = (text.len() - sc.pos + 1) / (2 * want);
    let mut entries = Vec::with_capacity(nnz.min(most));
    let mut seen = 0usize;
    while sc.content_line() {
        let line = sc.line;
        let (mut r, mut c, mut value) = (None, None, (0, 0));
        let mut fields = 0;
        while sc.bytes().get(sc.pos).is_some_and(|&b| b != b'\n') {
            fields += 1;
            match fields {
                1 => r = sc.index(),
                2 => c = sc.index(),
                3 => value = sc.token(),
                _ => {
                    sc.token();
                }
            }
            sc.skip_seps();
        }
        sc.next_line();
        if fields != want {
            return Err(parse_err(line, format!("entry must have {want} fields")));
        }
        let r = r.ok_or_else(|| parse_err(line, "bad row index"))?;
        let c = c.ok_or_else(|| parse_err(line, "bad col index"))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(parse_err(
                line,
                format!("index ({r},{c}) out of 1..={rows} x 1..={cols}"),
            ));
        }
        let v: f64 = match field {
            Field::Pattern => 1.0,
            Field::Valued => text
                .get(value.0..value.1)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| parse_err(line, "bad value"))?,
        };
        entries.push((r - 1, c - 1, v));
        if symmetric && r != c {
            entries.push((c - 1, r - 1, v));
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(
            0,
            format!("header promised {nnz} entries, found {seen}"),
        ));
    }
    Ok(Coo::from_entries(rows, cols, entries))
}

/// Render a [`Coo`] as a `matrix coordinate real general` document.
pub fn render(coo: &Coo) -> String {
    let mut out = String::new();
    out.push_str("%%MatrixMarket matrix coordinate real general\n");
    out.push_str("% written by sparsedist-gen\n");
    out.push_str(&format!("{} {} {}\n", coo.rows(), coo.cols(), coo.nnz()));
    for &(r, c, v) in coo.entries() {
        out.push_str(&format!("{} {} {}\n", r + 1, c + 1, v));
    }
    out
}

/// Read a MatrixMarket file.
pub fn read_file(path: impl AsRef<Path>) -> Result<Coo, MmError> {
    parse(&fs::read_to_string(path)?)
}

/// Write a MatrixMarket file.
pub fn write_file(path: impl AsRef<Path>, coo: &Coo) -> Result<(), MmError> {
    let mut f = fs::File::create(path)?;
    f.write_all(render(coo).as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsedist_core::dense::paper_array_a;

    #[test]
    fn round_trip_paper_array() {
        let coo = Coo::from_dense(&paper_array_a());
        let text = render(&coo);
        let back = parse(&text).unwrap();
        assert_eq!(back.to_dense(), paper_array_a());
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    \n\
                    2 3 2\n\
                    % another\n\
                    1 1 1.5\n\
                    2 3 -2.5\n";
        let coo = parse(text).unwrap();
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.to_dense().get(1, 2), -2.5);
    }

    #[test]
    fn pattern_matrices_get_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let coo = parse(text).unwrap();
        assert_eq!(coo.to_dense().get(0, 0), 1.0);
        assert_eq!(coo.to_dense().get(1, 1), 1.0);
    }

    #[test]
    fn symmetric_matrices_are_expanded() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 5\n3 1 7\n";
        let coo = parse(text).unwrap();
        let d = coo.to_dense();
        assert_eq!(d.get(0, 0), 5.0);
        assert_eq!(d.get(2, 0), 7.0);
        assert_eq!(d.get(0, 2), 7.0);
    }

    #[test]
    fn error_on_bad_header() {
        assert!(matches!(
            parse("garbage\n"),
            Err(MmError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse("%%MatrixMarket matrix array real general\n"),
            Err(MmError::Unsupported(_))
        ));
        assert!(matches!(
            parse("%%MatrixMarket matrix coordinate complex general\n2 2 0\n"),
            Err(MmError::Unsupported(_))
        ));
    }

    #[test]
    fn error_on_out_of_bounds_entry() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("out of"), "{err}");
    }

    #[test]
    fn error_on_count_mismatch() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1.0\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("promised 5"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sparsedist_mm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.mtx");
        let coo = Coo::from_dense(&paper_array_a());
        write_file(&path, &coo).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.to_dense(), paper_array_a());
        std::fs::remove_dir_all(&dir).ok();
    }
}
