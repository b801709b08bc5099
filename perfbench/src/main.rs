//! End-to-end benchmark of sparsedist.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Writes the workload's seeded `.mtx` input (in a child process, before
//! any timing), then repeats `.mtx` → verified distribution → k SpMV
//! calls for `S` seconds on the machine's default engine. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` alternates untraced and
//! traced attempts and reports the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `--smoke` runs the same code paths at n = 64.

mod calib;
mod cpu;
mod pipeline;
mod trace;
mod workload;

use pipeline::{attempt, replay, Attempt, Reference, Virtual};
use sparsedist_multicomputer::{EngineKind, Phase, PhaseLedger, WireStats};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Workload;

/// Where inputs and span files go: inside the benchmark's own directory.
const WORK_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/work");

/// Untraced attempts every end-to-end run makes at least, however long
/// they take, so each median has several samples.
const MIN_ATTEMPTS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    /// `gen` mode: write the input here and exit.
    gen_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let gen = argv.peek().is_some_and(|a| a == "gen");
    if gen {
        argv.next();
    }
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut smoke = false;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => {
                let v = argv.next().ok_or(format!("{flag} needs a value"))?;
                flags.insert(flag, v);
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("{k} is required"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let name = get("--workload")?;
    let mut workload = Workload::by_name(name).ok_or(format!(
        "unknown workload '{name}' (one of {})",
        workload::ALL.map(|w| w.name).join(", ")
    ))?;
    if smoke {
        workload = workload.smoke();
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: if gen { 0 } else { num("--seconds")? },
        trace: !gen && num("--trace")? == 1,
        smoke,
        gen_out: if gen {
            Some(PathBuf::from(get("--out")?))
        } else {
            None
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.gen_out {
        Some(out) => args.workload.write_input(args.seed, out),
        None => bench(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Write the input in a child process, so neither its time nor its memory
/// lands in the measured process.
fn generate(args: &Args, path: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("gen")
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .arg("--out")
        .arg(path);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("input generator: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("input generator failed: {status}"))
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let w = &args.workload;
    let load_start = loadavg();
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    let input = Path::new(WORK_DIR).join(format!(
        "{}-seed{}-{}.mtx",
        w.name,
        args.seed,
        std::process::id()
    ));
    generate(args, &input)?;
    let measured = measure(args, &input);
    let _ = std::fs::remove_file(&input);
    let m = measured?;

    println!(
        "host: nproc={} loadavg_start=\"{load_start}\" loadavg_end=\"{}\" profile=\"{}\" rustc=\"{}\"",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        loadavg(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC_VERSION"),
    );
    println!(
        "workload: {} n={} s={} p={} scheme={} wire={} k={} seed={} engine={:?} input_bytes={} nnz={}",
        w.name,
        w.n,
        w.s,
        w.nprocs(),
        w.scheme,
        w.wire,
        w.k,
        args.seed,
        m.engine,
        m.file_bytes,
        m.nnz
    );
    for p in &m.problems {
        println!("failure: {p}");
    }
    for line in &m.notes {
        println!("{line}");
    }
    for metric in &m.metrics {
        println!("metric: {} = {} {}", metric.name, metric.value, metric.unit);
    }
    let body: Vec<String> = m
        .metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                finite(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.problems.is_empty(),
        m.attempted,
        m.problems.len(),
        body.join(", ")
    );
    Ok(())
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Measured {
    attempted: usize,
    /// One entry per failed attempt.
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    notes: Vec<String>,
    engine: EngineKind,
    file_bytes: u64,
    nnz: usize,
}

/// Run attempts for `args.seconds` and reduce them to metrics.
fn measure(args: &Args, input: &Path) -> Result<Measured, String> {
    let w = &args.workload;
    let file_bytes = std::fs::metadata(input)
        .map_err(|e| format!("{}: {e}", input.display()))?
        .len();
    let reference = Reference::load(input)?;
    let nnz = reference.global.nnz();

    let mut tally = Tally::default();
    // Per untraced attempt: set-up and whole-attempt CPU seconds scaled
    // by the probe run just before it (see `calib`), and the raw clocks.
    let mut setup = Vec::new();
    let mut e2e = Vec::new();
    let mut e2e_cpu = Vec::new();
    let mut e2e_wall = Vec::new();
    let mut probes = Vec::new();
    let mut traced_e2e = Vec::new();
    let mut layers: Vec<Vec<Metric>> = Vec::new();
    let mut tracer = Tracer::on();

    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    // A warm-up attempt: checked like every other, but in no median. The
    // footprint of one attempt is read after it, before the probe's
    // buffers exist; later attempts only add allocator growth that
    // depends on how many fit in the run.
    tally.check(attempt(w, input, &reference, &mut Tracer::off()));
    let peak_rss = peak_rss_mib();
    let probe = calib::Probe::new();
    let mut run_id = 0u32;
    loop {
        let probe_s = probe.time();
        if let Some(at) = tally.check(attempt(w, input, &reference, &mut Tracer::off())) {
            let scale = calib::REF_S / probe_s;
            setup.push(at.setup_cpu_s * scale);
            e2e.push(at.e2e_cpu_s * scale);
            e2e_cpu.push(at.e2e_cpu_s);
            e2e_wall.push(at.e2e_s);
            probes.push(probe_s);
        }
        if args.trace {
            run_id += 1;
            tracer.set_run(run_id);
            let res = tracer.span("attempt", |t| attempt(w, input, &reference, t));
            let failed_before = tally.problems.len();
            if let Some(at) = tally.check(res) {
                traced_e2e.push(at.e2e_s);
                match tracer.span("replay", |t| replay(w, &at, &reference, t)) {
                    Ok(()) => layers.push(layer_metrics(w, &at, &tracer, run_id, file_bytes, nnz)),
                    // A failed replay fails its attempt, which counts once.
                    Err(e) if tally.problems.len() == failed_before => tally.problems.push(e),
                    Err(_) => {}
                }
            }
        }
        let enough = if args.trace {
            !layers.is_empty()
        } else {
            e2e.len() >= MIN_ATTEMPTS
        };
        if start.elapsed() >= budget && (enough || tally.attempted >= 2 * MIN_ATTEMPTS) {
            break;
        }
    }
    let Tally {
        attempted,
        problems,
        first,
        engine,
    } = tally;
    let (Some(virt), Some(engine)) = (first, engine) else {
        return Err(format!("no attempt completed: {}", problems.join("; ")));
    };

    let mut notes = vec![
        format!(
            "e2e_s: median {} s, {} over {} untraced attempts; setup_s median {} s; samples {:?}",
            median(&e2e),
            tail_percentile(&e2e),
            e2e.len(),
            median(&setup),
            e2e
        ),
        format!(
            "raw clocks: e2e wall median {} s, e2e CPU median {} s, probe CPU median {} s (reference {} s)",
            median(&e2e_wall),
            median(&e2e_cpu),
            median(&probes),
            calib::REF_S
        ),
    ];
    let metrics = if args.trace {
        if layers.is_empty() {
            return Err(format!(
                "no traced attempt completed: {}",
                problems.join("; ")
            ));
        }
        let mut out = fold_median(layers);
        out.push(metric(
            "trace_overhead_s",
            median(&traced_e2e) - median(&e2e_wall),
            "s",
        ));
        out
    } else {
        notes.push(format!(
            "spmv_makespan_us: {} us over k = {} calls",
            virt.spmv_makespan_us, w.k
        ));
        notes.push(format!(
            "fail_ratio: {} ({} failed / {attempted} attempted)",
            problems.len() as f64 / attempted as f64,
            problems.len()
        ));
        vec![
            metric("e2e_s", median(&e2e), "s"),
            metric("setup_s", median(&setup), "s"),
            metric("makespan_us", virt.makespan_us, "us"),
            metric("t_distribution_us", virt.t_distribution_us, "us"),
            metric("t_compression_us", virt.t_compression_us, "us"),
            metric("peak_rss_mb", peak_rss, "MiB"),
        ]
    };
    if args.trace {
        let path = Path::new(WORK_DIR).join(format!("spans-{}.json", w.name));
        std::fs::write(&path, tracer.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("spans written to {}", path.display()));
    }
    Ok(Measured {
        attempted,
        problems,
        metrics,
        notes,
        engine,
        file_bytes,
        nnz,
    })
}

/// Attempts made so far and what was wrong with them.
#[derive(Default)]
struct Tally {
    attempted: usize,
    /// One entry per failed attempt.
    problems: Vec<String>,
    /// The first completed attempt's virtual clock.
    first: Option<Virtual>,
    engine: Option<EngineKind>,
}

impl Tally {
    /// Count one attempt; record an error, a wrong output or a virtual
    /// clock that differs from the first attempt's as a failure.
    fn check(&mut self, res: Result<Attempt, String>) -> Option<Attempt> {
        self.attempted += 1;
        let at = match res {
            Ok(at) => at,
            Err(e) => {
                self.problems.push(e);
                return None;
            }
        };
        let mut wrong = at.problem.clone();
        match self.first {
            None => self.first = Some(at.virt),
            Some(v) if v.bits() != at.virt.bits() => {
                wrong.get_or_insert(format!(
                    "virtual clock moved between attempts: {v:?} then {:?}",
                    at.virt
                ));
            }
            Some(_) => {}
        }
        self.problems.extend(wrong);
        self.engine.get_or_insert(at.engine);
        Some(at)
    }
}

/// The per-layer metrics of traced attempt `run`.
fn layer_metrics(
    w: &Workload,
    at: &Attempt,
    tracer: &Tracer,
    run: u32,
    file_bytes: u64,
    nnz: usize,
) -> Vec<Metric> {
    let ms = |name: &str| tracer.durations_ms(name, run).iter().sum::<f64>();
    let iters = tracer.durations_ms("spmv.iter", run);
    let ledgers = &at.run.ledgers;
    let src = &ledgers[at.run.source];
    let wire = ledgers.iter().fold(WireStats::default(), |mut acc, l| {
        acc += l.wire();
        acc
    });
    let (checkouts, reuses) = (0..at.machine.nprocs())
        .map(|r| at.machine.arena(r).stats())
        .fold((0u64, 0u64), |(c, r), s| (c + s.checkouts, r + s.reuses));
    let max_of =
        |ls: &[PhaseLedger], p: Phase| ls.iter().map(|l| l.get(p).as_micros()).fold(0.0, f64::max);
    let spmv_sum =
        |f: &dyn Fn(&[PhaseLedger]) -> f64| at.spmv.iter().map(|l| f(l)).fold(0.0, |s, v| s + v);
    let (rows, cols) = at.part.global_shape();

    let mut out = vec![
        metric("matrixmarket.read_ms", ms("matrixmarket.read"), "ms"),
        metric("matrixmarket.parse_ms", ms("matrixmarket.parse"), "ms"),
        metric(
            "matrixmarket.parse_mb_per_s",
            file_bytes as f64 / 1e6 / (ms("matrixmarket.parse") / 1e3),
            "MB/s",
        ),
        metric("matrixmarket.file_bytes", file_bytes as f64, "bytes"),
        metric("coo.validate_ms", ms("coo.validate"), "ms"),
        metric("coo.densify_ms", ms("coo.densify"), "ms"),
        metric("coo.nnz", nnz as f64, "count"),
        metric(
            "coo.dense_bytes_computed",
            (rows * cols * std::mem::size_of::<f64>()) as f64,
            "bytes",
        ),
        metric("partition.build_ms", ms("partition.build"), "ms"),
        metric("partition.s_max", at.part.nnz_profile(&at.a).s_max, "ratio"),
        metric("engine.build_ms", ms("engine.build"), "ms"),
        metric("pack.arena_checkouts", checkouts as f64, "count"),
        metric(
            "pack.arena_reuse_ratio",
            if checkouts == 0 {
                0.0
            } else {
                reuses as f64 / checkouts as f64
            },
            "ratio",
        ),
        metric("schemes.distribute_ms", ms("schemes.distribute"), "ms"),
        metric("schemes.verify_ms", ms("schemes.verify"), "ms"),
        metric("compress.crs_ms", ms("compress.crs"), "ms"),
        metric("wire.encode_ms", ms("wire.encode"), "ms"),
        metric("wire.decode_ms", ms("wire.decode"), "ms"),
        metric("wire.messages", wire.messages as f64, "count"),
        metric("wire.elements", wire.elements as f64, "count"),
        metric("wire.bytes", wire.bytes as f64, "bytes"),
        metric(
            "wire.bytes_per_elem",
            wire.bytes_per_element().unwrap_or(0.0),
            "B/elem",
        ),
    ];
    for (phase, src_name, max_name) in PHASES {
        out.push(metric(src_name, src.get(phase).as_micros(), "us"));
        out.push(metric(max_name, max_of(ledgers, phase), "us"));
    }
    out.extend([
        metric(
            "faults.retries",
            ledgers.iter().map(|l| l.faults().retries).sum::<u64>() as f64,
            "count",
        ),
        metric("spmv.iter_ms", median(&iters), "ms"),
        metric("spmv.iter_p90_ms", quantile(&iters, 0.9), "ms"),
        metric("spmv.local_ms", ms("spmv.local"), "ms"),
        metric("spmv.serial_ms", ms("spmv.serial"), "ms"),
        metric("spmv.flops_computed", (2 * nnz * w.k) as f64, "count"),
        metric(
            "spmv.root_wire_elems",
            at.spmv.iter().map(|l| l[0].wire().elements).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "spmv.virt_compute_max_us",
            spmv_sum(&|l| max_of(l, Phase::Compute)),
            "us",
        ),
        metric(
            "spmv.virt_send_src_us",
            spmv_sum(&|l| l[0].get(Phase::Send).as_micros()),
            "us",
        ),
        metric("spmv_makespan_us", at.virt.spmv_makespan_us, "us"),
    ]);
    out
}

/// The virtual phases reported per layer: source rank and slowest rank.
const PHASES: [(Phase, &str, &str); 8] = [
    (
        Phase::Compress,
        "phase.compress_src_us",
        "phase.compress_max_us",
    ),
    (Phase::Encode, "phase.encode_src_us", "phase.encode_max_us"),
    (Phase::Pack, "phase.pack_src_us", "phase.pack_max_us"),
    (Phase::Send, "phase.send_src_us", "phase.send_max_us"),
    (Phase::Unpack, "phase.unpack_src_us", "phase.unpack_max_us"),
    (Phase::Decode, "phase.decode_src_us", "phase.decode_max_us"),
    (Phase::Wait, "phase.wait_src_us", "phase.wait_max_us"),
    (Phase::Retry, "phase.retry_src_us", "phase.retry_max_us"),
];

/// Metric-wise median over attempts that each report the same names.
fn fold_median(per_attempt: Vec<Vec<Metric>>) -> Vec<Metric> {
    let mut iter = per_attempt.into_iter();
    let mut out: Vec<(Metric, Vec<f64>)> = iter
        .next()
        .unwrap_or_default()
        .into_iter()
        .map(|m| {
            let v = vec![m.value];
            (m, v)
        })
        .collect();
    for attempt in iter {
        for ((_, vals), m) in out.iter_mut().zip(attempt) {
            vals.push(m.value);
        }
    }
    out.into_iter()
        .map(|(m, vals)| metric(m.name, median(&vals), m.unit))
        .collect()
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle two for an even count); 0 for no samples.
fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` in `[0, 1]`; 0 for no samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest percentile that still has at least ten samples above it.
fn tail_percentile(v: &[f64]) -> String {
    let s = sorted(v);
    if s.len() <= 10 {
        return "no percentile with 10 samples beyond it".to_string();
    }
    let idx = s.len() - 11;
    format!(
        "p{:.0} {} s",
        100.0 * (idx + 1) as f64 / s.len() as f64,
        s[idx]
    )
}

/// JSON has no NaN or infinity.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The process's resident-set high-water mark (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), "p50 10 s");
        assert!(tail_percentile(&v[..10]).starts_with("no percentile"));
    }
}
