#![warn(missing_docs)]

//! Shared machinery for regenerating the paper's tables.
//!
//! Table 3 (row partition), Table 4 (column partition) and Table 5 (2-D
//! mesh partition) all have the same shape: for each processor count and
//! each array size, the measured `T_Distribution` and `T_Compression` of
//! the SFC, CFS and ED schemes at sparse ratio 0.1. [`run_table`] produces
//! that grid on the simulated machine and [`render_table`] prints it in
//! the paper's layout (times in milliseconds).
//!
//! The analytic side (Tables 1–2) is covered by [`analytic_comparison`],
//! which prints predicted-vs-measured for every scheme so the closed forms
//! of `sparsedist_core::cost` can be audited at a glance.

use sparsedist_core::compress::CompressKind;
use sparsedist_core::cost::{predict, CostInput, PartitionMethod, SchemeCost};
use sparsedist_core::partition::{ColBlock, Mesh2D, Partition, RowBlock};
use sparsedist_core::schemes::{run_scheme, SchemeKind, SchemeRun};
use sparsedist_gen::SparseRandom;
use sparsedist_multicomputer::{MachineModel, Multicomputer};

/// The paper's fixed experimental sparse ratio (§5).
pub const PAPER_SPARSE_RATIO: f64 = 0.1;

/// A processor configuration: flat count or mesh grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcConfig {
    /// `p` processors in a row/column partition.
    Flat(usize),
    /// A `pr × pc` mesh.
    Grid(usize, usize),
}

impl ProcConfig {
    /// Total processor count.
    pub fn nprocs(&self) -> usize {
        match *self {
            ProcConfig::Flat(p) => p,
            ProcConfig::Grid(pr, pc) => pr * pc,
        }
    }

    /// Label as the paper prints it (`4` or `2x2`).
    pub fn label(&self) -> String {
        match *self {
            ProcConfig::Flat(p) => p.to_string(),
            ProcConfig::Grid(pr, pc) => format!("{pr}x{pc}"),
        }
    }
}

/// Which of the paper's measured tables to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperTable {
    /// Table 3: row partition.
    Table3Row,
    /// Table 4: column partition.
    Table4Column,
    /// Table 5: 2-D mesh partition.
    Table5Mesh,
}

impl PaperTable {
    /// The paper's exact parameter grid for this table.
    pub fn spec(&self) -> TableSpec {
        match self {
            PaperTable::Table3Row => TableSpec {
                title: "Table 3: row partition method (CRS)",
                sizes: vec![200, 400, 800, 1000, 2000],
                procs: vec![
                    ProcConfig::Flat(4),
                    ProcConfig::Flat(16),
                    ProcConfig::Flat(32),
                ],
                table: *self,
            },
            PaperTable::Table4Column => TableSpec {
                title: "Table 4: column partition method (CRS)",
                sizes: vec![200, 400, 800, 1000, 2000],
                procs: vec![
                    ProcConfig::Flat(4),
                    ProcConfig::Flat(16),
                    ProcConfig::Flat(32),
                ],
                table: *self,
            },
            PaperTable::Table5Mesh => TableSpec {
                title: "Table 5: 2D mesh partition method (CRS)",
                sizes: vec![120, 240, 480, 960, 1920],
                procs: vec![
                    ProcConfig::Grid(2, 2),
                    ProcConfig::Grid(4, 4),
                    ProcConfig::Grid(8, 8),
                ],
                table: *self,
            },
        }
    }

    /// Build this table's partition for a given size and processor config.
    pub fn partition(&self, n: usize, pc: ProcConfig) -> Box<dyn Partition> {
        match (self, pc) {
            (PaperTable::Table3Row, ProcConfig::Flat(p)) => Box::new(RowBlock::new(n, n, p)),
            (PaperTable::Table4Column, ProcConfig::Flat(p)) => Box::new(ColBlock::new(n, n, p)),
            (PaperTable::Table5Mesh, ProcConfig::Grid(pr, pcc)) => {
                Box::new(Mesh2D::new(n, n, pr, pcc))
            }
            _ => panic!("processor config {pc:?} does not fit {self:?}"),
        }
    }

    /// The matching analytic [`PartitionMethod`].
    pub fn method(&self, pc: ProcConfig) -> PartitionMethod {
        match (self, pc) {
            (PaperTable::Table3Row, _) => PartitionMethod::Row,
            (PaperTable::Table4Column, _) => PartitionMethod::Column,
            (PaperTable::Table5Mesh, ProcConfig::Grid(pr, pcc)) => {
                PartitionMethod::Mesh { pr, pc: pcc }
            }
            (PaperTable::Table5Mesh, ProcConfig::Flat(_)) => {
                panic!("mesh table needs a Grid processor config")
            }
        }
    }
}

/// Parameter grid for one table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table heading.
    pub title: &'static str,
    /// Array sizes (`n` for `n × n`).
    pub sizes: Vec<usize>,
    /// Processor configurations.
    pub procs: Vec<ProcConfig>,
    /// Which table this is.
    pub table: PaperTable,
}

impl TableSpec {
    /// Restrict to the smaller half of the grid (for quick runs / CI).
    pub fn quick(mut self) -> Self {
        self.sizes.truncate(3);
        self.procs.truncate(2);
        self
    }
}

/// One measured cell: distribution and compression times in ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTimes {
    /// `T_Distribution`, milliseconds.
    pub dist_ms: f64,
    /// `T_Compression`, milliseconds.
    pub comp_ms: f64,
}

impl From<&SchemeRun> for CellTimes {
    fn from(run: &SchemeRun) -> Self {
        CellTimes {
            dist_ms: run.t_distribution().as_millis(),
            comp_ms: run.t_compression().as_millis(),
        }
    }
}

/// Generate the standard workload for a cell (uniform random, exact
/// `s = 0.1`, seed derived from the size so every scheme sees the same
/// array).
pub fn workload(n: usize) -> sparsedist_core::dense::Dense2D {
    SparseRandom::new(n, n)
        .sparse_ratio(PAPER_SPARSE_RATIO)
        .seed(0xC0FFEE ^ n as u64)
        .generate()
}

/// Run one (scheme, size, processor-config) cell of a table on the given
/// machine model.
pub fn run_cell(
    table: PaperTable,
    scheme: SchemeKind,
    n: usize,
    pc: ProcConfig,
    kind: CompressKind,
    model: MachineModel,
) -> SchemeRun {
    let a = workload(n);
    let part = table.partition(n, pc);
    let machine = Multicomputer::virtual_machine(pc.nprocs(), model);
    run_scheme(scheme, &machine, &a, part.as_ref(), kind).expect("fault-free run")
}

/// A fully measured table: `grid[proc][scheme][size]`.
#[derive(Debug, Clone)]
pub struct MeasuredTable {
    /// The spec that was run.
    pub spec: TableSpec,
    /// `grid[proc_idx][scheme_idx][size_idx]`.
    pub grid: Vec<Vec<Vec<CellTimes>>>,
}

/// Measure a whole table (the paper measures with CRS compression, §5).
pub fn run_table(spec: &TableSpec, model: MachineModel) -> MeasuredTable {
    let grid = spec
        .procs
        .iter()
        .map(|&pc| {
            SchemeKind::ALL
                .iter()
                .map(|&scheme| {
                    spec.sizes
                        .iter()
                        .map(|&n| {
                            let run = run_cell(spec.table, scheme, n, pc, CompressKind::Crs, model);
                            CellTimes::from(&run)
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    MeasuredTable {
        spec: spec.clone(),
        grid,
    }
}

/// Render a measured table in the paper's layout.
pub fn render_table(t: &MeasuredTable) -> String {
    let mut out = String::new();
    out.push_str(&format!("{}\n", t.spec.title));
    out.push_str(&format!("{:<8}{:<8}{:<16}", "Procs", "Scheme", "Cost"));
    for &n in &t.spec.sizes {
        out.push_str(&format!("{:>12}", format!("{n}x{n}")));
    }
    out.push('\n');
    let dashes = 32 + 12 * t.spec.sizes.len();
    out.push_str(&format!("{}\n", "-".repeat(dashes)));
    for (pi, &pc) in t.spec.procs.iter().enumerate() {
        for (si, scheme) in SchemeKind::ALL.iter().enumerate() {
            for (cost_label, pick) in [("T_Distribution", 0usize), ("T_Compression", 1usize)] {
                let proc_label = if si == 0 && pick == 0 {
                    pc.label()
                } else {
                    String::new()
                };
                let scheme_label = if pick == 0 { scheme.label() } else { "" };
                out.push_str(&format!("{proc_label:<8}{scheme_label:<8}{cost_label:<16}"));
                for (ni, _) in t.spec.sizes.iter().enumerate() {
                    let cell = t.grid[pi][si][ni];
                    let v = if pick == 0 {
                        cell.dist_ms
                    } else {
                        cell.comp_ms
                    };
                    out.push_str(&format!("{v:>12.3}"));
                }
                out.push('\n');
            }
        }
        out.push_str(&format!("{}\n", "-".repeat(dashes)));
    }
    out.push_str("Times in ms (virtual, IBM SP2-calibrated model)\n");
    out
}

/// Render a measured table as CSV rows
/// (`table,procs,scheme,n,dist_ms,comp_ms`), for downstream plotting.
pub fn render_csv(t: &MeasuredTable) -> String {
    let mut out = String::from("table,procs,scheme,n,dist_ms,comp_ms\n");
    let tname = match t.spec.table {
        PaperTable::Table3Row => "table3_row",
        PaperTable::Table4Column => "table4_column",
        PaperTable::Table5Mesh => "table5_mesh",
    };
    for (pi, pc) in t.spec.procs.iter().enumerate() {
        for (si, scheme) in SchemeKind::ALL.iter().enumerate() {
            for (ni, n) in t.spec.sizes.iter().enumerate() {
                let cell = t.grid[pi][si][ni];
                out.push_str(&format!(
                    "{tname},{},{},{n},{:.6},{:.6}\n",
                    pc.label(),
                    scheme.label(),
                    cell.dist_ms,
                    cell.comp_ms
                ));
            }
        }
    }
    out
}

/// Predicted-vs-measured comparison for one cell (the Tables 1–2 audit).
#[derive(Debug, Clone, Copy)]
pub struct AnalyticCell {
    /// Which scheme.
    pub scheme: SchemeKind,
    /// Closed-form prediction.
    pub predicted: SchemeCost,
    /// Instrumented measurement.
    pub measured: CellTimes,
}

impl AnalyticCell {
    /// Relative error of the distribution-time prediction.
    pub fn dist_rel_err(&self) -> f64 {
        let p = self.predicted.t_distribution.as_millis();
        (p - self.measured.dist_ms).abs() / self.measured.dist_ms.max(1e-12)
    }

    /// Relative error of the compression-time prediction.
    pub fn comp_rel_err(&self) -> f64 {
        let p = self.predicted.t_compression.as_millis();
        (p - self.measured.comp_ms).abs() / self.measured.comp_ms.max(1e-12)
    }
}

/// Compare the closed forms against instrumented runs for one
/// (table, size, procs, compression) point.
pub fn analytic_comparison(
    table: PaperTable,
    n: usize,
    pc: ProcConfig,
    kind: CompressKind,
    model: MachineModel,
) -> Vec<AnalyticCell> {
    let a = workload(n);
    let part = table.partition(n, pc);
    let prof = part.nnz_profile(&a);
    let inp = CostInput {
        n,
        p: pc.nprocs(),
        s: a.sparse_ratio(),
        s_max: prof.s_max,
    };
    let machine = Multicomputer::virtual_machine(pc.nprocs(), model);
    SchemeKind::ALL
        .iter()
        .map(|&scheme| {
            let run =
                run_scheme(scheme, &machine, &a, part.as_ref(), kind).expect("fault-free run");
            AnalyticCell {
                scheme,
                predicted: predict(scheme, table.method(pc), kind, &inp, &model),
                measured: CellTimes::from(&run),
            }
        })
        .collect()
}

/// True under Criterion's `--test` flag — the CI smoke, one pass per
/// routine.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// The file a bench writes its `BENCH_*.json` section into. A full run
/// updates the committed `file` at the workspace root. A smoke run
/// ([`smoke_mode`]) writes `target/bench-smoke/<file>` instead, seeded
/// from the committed file when missing, so the committed baseline is
/// never rewritten and `bench_gate <file> target/bench-smoke/<file>`
/// compares the two.
pub fn bench_json(file: &str) -> std::io::Result<std::path::PathBuf> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = root.join(file);
    if !smoke_mode() {
        return Ok(committed);
    }
    let dir = root.join("target").join("bench-smoke");
    std::fs::create_dir_all(&dir)?;
    let smoke = dir.join(file);
    if !smoke.exists() && committed.exists() {
        std::fs::copy(&committed, &smoke)?;
    }
    Ok(smoke)
}

/// Split the top level of a JSON object into `(key, raw value)` pairs,
/// preserving order and each value's original formatting. Only the
/// shallow structure is parsed — values stay verbatim text, so a section
/// written by one bench survives a rewrite by another.
pub fn split_bench_sections(json: &str) -> Result<Vec<(String, String)>, String> {
    let inner = json
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("top level is not a JSON object")?;
    let bytes = inner.as_bytes();
    let mut sections = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        if bytes[i] != b'"' {
            return Err(format!("expected a key at byte {i}"));
        }
        let kstart = i + 1;
        let mut j = kstart;
        while j < bytes.len() && bytes[j] != b'"' {
            j += if bytes[j] == b'\\' { 2 } else { 1 };
        }
        if j >= bytes.len() {
            return Err("unterminated key".to_string());
        }
        let key = inner[kstart..j].to_string();
        i = j + 1;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b':' {
            return Err(format!("missing `:` after key {key:?}"));
        }
        i += 1;
        while i < bytes.len() && bytes[i] == b' ' {
            i += 1;
        }
        let vstart = i;
        let mut depth: i64 = 0;
        let mut in_str = false;
        while i < bytes.len() {
            let c = bytes[i];
            if in_str {
                if c == b'\\' {
                    i += 1;
                } else if c == b'"' {
                    in_str = false;
                }
            } else {
                match c {
                    b'"' => in_str = true,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => depth -= 1,
                    b',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        if depth != 0 || in_str {
            return Err(format!("unbalanced value for key {key:?}"));
        }
        sections.push((key, inner[vstart..i].trim_end().to_string()));
        i += 1; // past the separating comma, if any
    }
    Ok(sections)
}

/// Merge `sections` into the top level of the JSON object at `path` and
/// write it back: existing keys are replaced in place (order preserved),
/// new keys are appended, and every section some other bench wrote is
/// kept verbatim. A missing or unparseable file starts from `{}` — the
/// benches must be runnable on a clean checkout.
pub fn upsert_bench_sections(
    path: &std::path::Path,
    sections: &[(&str, String)],
) -> std::io::Result<()> {
    let mut merged = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| split_bench_sections(&text).ok())
        .unwrap_or_default();
    for (key, value) in sections {
        match merged.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value.clone(),
            None => merged.push((key.to_string(), value.clone())),
        }
    }
    let body = merged
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n");
    std::fs::write(path, format!("{{\n{body}\n}}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_has_exact_ratio() {
        let a = workload(200);
        assert_eq!(a.nnz(), 4000);
    }

    #[test]
    fn split_bench_sections_keeps_raw_text() {
        let json = "{\n  \"n\": 1000,\n  \"bytes\": {\n    \"s0.1\": {\"sfc\": 1}\n  },\n  \"note\": \"a, b\"\n}\n";
        let got = split_bench_sections(json).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], ("n".to_string(), "1000".to_string()));
        assert_eq!(got[1].0, "bytes");
        assert!(got[1].1.starts_with('{') && got[1].1.ends_with('}'));
        assert!(got[1].1.contains("\"s0.1\""));
        // A comma inside a string does not split the section.
        assert_eq!(got[2], ("note".to_string(), "\"a, b\"".to_string()));
    }

    #[test]
    fn split_bench_sections_rejects_non_objects() {
        assert!(split_bench_sections("[1, 2]").is_err());
        assert!(split_bench_sections("{\"k\": {").is_err());
    }

    #[test]
    fn upsert_replaces_updates_and_appends() {
        let path = std::env::temp_dir().join(format!("bench_upsert_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // Missing file: starts from an empty object.
        upsert_bench_sections(
            &path,
            &[("a", "1".to_string()), ("b", "{\"x\": 2}".to_string())],
        )
        .unwrap();
        // A second writer updates one section and adds its own; the
        // section it never mentions (`b`) survives verbatim.
        upsert_bench_sections(
            &path,
            &[("a", "3".to_string()), ("c", "[4, 5]".to_string())],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            text,
            "{\n  \"a\": 3,\n  \"b\": {\"x\": 2},\n  \"c\": [4, 5]\n}\n"
        );
    }

    #[test]
    fn quick_spec_shrinks() {
        let spec = PaperTable::Table3Row.spec().quick();
        assert_eq!(spec.sizes, vec![200, 400, 800]);
        assert_eq!(spec.procs.len(), 2);
    }

    #[test]
    fn table3_quick_orderings() {
        // The headline shape on a quick grid: ED dist < CFS dist < SFC
        // dist and SFC comp < CFS comp < ED comp, every cell.
        let spec = PaperTable::Table3Row.spec().quick();
        let t = run_table(&spec, MachineModel::ibm_sp2());
        for (pi, _) in spec.procs.iter().enumerate() {
            for (ni, _) in spec.sizes.iter().enumerate() {
                let sfc = t.grid[pi][0][ni];
                let cfs = t.grid[pi][1][ni];
                let ed = t.grid[pi][2][ni];
                assert!(ed.dist_ms < cfs.dist_ms && cfs.dist_ms < sfc.dist_ms);
                assert!(sfc.comp_ms < cfs.comp_ms && cfs.comp_ms < ed.comp_ms);
            }
        }
    }

    #[test]
    fn analytic_predictions_match_measurement_closely() {
        // With p | n, the closed forms should agree with the instrumented
        // runs to well under 1%.
        for (table, pc) in [
            (PaperTable::Table3Row, ProcConfig::Flat(4)),
            (PaperTable::Table4Column, ProcConfig::Flat(4)),
            (PaperTable::Table5Mesh, ProcConfig::Grid(2, 2)),
        ] {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                let cells = analytic_comparison(table, 200, pc, kind, MachineModel::ibm_sp2());
                for c in cells {
                    assert!(
                        c.dist_rel_err() < 0.01,
                        "{table:?} {kind} {}: dist err {}",
                        c.scheme,
                        c.dist_rel_err()
                    );
                    assert!(
                        c.comp_rel_err() < 0.01,
                        "{table:?} {kind} {}: comp err {}",
                        c.scheme,
                        c.comp_rel_err()
                    );
                }
            }
        }
    }

    #[test]
    fn render_contains_all_schemes_and_sizes() {
        let spec = TableSpec {
            title: "test",
            sizes: vec![40, 80],
            procs: vec![ProcConfig::Flat(4)],
            table: PaperTable::Table3Row,
        };
        let t = run_table(&spec, MachineModel::ibm_sp2());
        let s = render_table(&t);
        for needle in ["SFC", "CFS", "ED", "40x40", "80x80", "T_Distribution"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }
}
