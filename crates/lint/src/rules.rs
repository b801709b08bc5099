//! The rule catalog and the per-file checker.
//!
//! Five rule families, each guarding an invariant the runtime tests can
//! only sample:
//!
//! * **D — determinism.** The headline property of the reproduction is
//!   that SFC/CFS/ED virtual clocks are bit-identical across
//!   sequential/parallel, traced/untraced and v1/v2 wire runs. A stray
//!   `Instant::now()`, an ambient RNG or a `HashMap` iteration in a
//!   clock-bearing module silently breaks that.
//! * **P — phase-charge discipline.** Every microsecond on the virtual
//!   clock must flow through the engine's charge API so it lands in a
//!   [`Phase`] ledger. Raw channel primitives or direct ledger mutation
//!   outside the engine bypass the accounting.
//! * **E — error hygiene.** Hot paths in `core`, `multicomputer` and
//!   `cli` return `SparsedistError`; `unwrap`/`expect`/`panic!` in
//!   non-test code either get converted or carry a written justification.
//! * **S — unsafe hygiene.** `unsafe` blocks need `// SAFETY:` comments,
//!   `unsafe fn`s need `# Safety` doc sections.
//! * **W — width discipline.** Truncating `as` casts live in the
//!   `core/src/wire/` codec family (the one place narrowing is the
//!   point) — all other code uses `try_from` or documents why the cast
//!   cannot lose bits.
//! * **C — communication safety.** The async engine's protocol
//!   invariants, checked syntactically via the token-tree parser
//!   ([`crate::parse`]) and the per-function dataflow walk
//!   ([`crate::flow`]): receives are the only yield points (C001),
//!   every nonblocking post reaches a drain on all paths (C002), routed
//!   sends carry part-id headers (C003), `Phase::Retry` is charged only
//!   from recovery code (C004), and the transport seam never leaks out
//!   of `crates/multicomputer` (C005).
//!
//! Scopes are module globs; the checked-in `lint.toml` can override the
//! defaults per rule. Suppression is explicit and always carries a
//! reason: `// lint: allow(RULE_ID) — reason`, covering the comment's
//! line and the next.
//!
//! [`Phase`]: ../../multicomputer/timing/enum.Phase.html

use crate::config::Config;
use crate::flow;
use crate::glob::matches_any;
use crate::lexer::LexedFile;
use crate::parse::{self, FnItem, ParsedFile};
use std::collections::BTreeMap;

/// How a rule inspects a file.
#[derive(Debug, Clone, Copy)]
pub enum RuleKind {
    /// Flag lines whose code view contains any of these tokens
    /// (identifier-boundary-checked substring match).
    Tokens(&'static [&'static str]),
    /// Like [`RuleKind::Tokens`], but only on lines that also contain
    /// `requires` — e.g. foreign error types only in `pub fn` signatures.
    TokensRequiring {
        /// The offending tokens.
        tokens: &'static [&'static str],
        /// A token that must also be present for the line to count.
        requires: &'static str,
    },
    /// `unsafe` blocks must have a `// SAFETY:` comment within the five
    /// preceding lines (or on the same line).
    UnsafeBlockSafetyComment,
    /// `unsafe fn` declarations must have a `# Safety` section in their
    /// doc comment.
    UnsafeFnSafetyDoc,
    /// Every `.await` must await a call to one of these functions
    /// (C001: receive is the engine's only yield point).
    AwaitAllowlist(&'static [&'static str]),
    /// Every *trigger* call must reach a *resolver* call on all non-`?`
    /// paths to a function exit (C002: posts are drained).
    PostsDrained(&'static [(&'static [&'static str], &'static [&'static str])]),
    /// In functions whose name contains a `ctx_fn` marker or whose
    /// `impl` type is in `ctx_impl`, every `trigger` call must be
    /// preceded by a `guards` call on all paths (C003: headers first).
    GuardBeforeCall {
        /// The guarded call.
        trigger: &'static str,
        /// Calls that establish the guard.
        guards: &'static [&'static str],
        /// Function-name substrings selecting the protocol context.
        ctx_fn: &'static [&'static str],
        /// `impl` type names selecting the protocol context.
        ctx_impl: &'static [&'static str],
    },
    /// `Phase::Retry` may be charged (`phase(`/`record(`/`charge(`)
    /// only inside functions whose name or body shows recovery context
    /// (C004: retry provenance).
    RetryProvenance {
        /// Function-name substrings that mark recovery code.
        fn_markers: &'static [&'static str],
        /// Body identifiers that mark recovery code.
        body_markers: &'static [&'static str],
    },
    /// The file must contain this token in its code view (S003: crate
    /// roots keep their `#![forbid(unsafe_code)]`).
    RequiredHeader(&'static str),
}

/// One lint rule: identity, scope defaults, and what it matches.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable ID, e.g. `D001` — what suppressions name.
    pub id: &'static str,
    /// One-line statement of the violated invariant.
    pub summary: &'static str,
    /// What to do instead.
    pub hint: &'static str,
    /// Matching strategy.
    pub kind: RuleKind,
    /// Default include globs (overridden by `[rules.ID] include`).
    pub include: &'static [&'static str],
    /// Default exclude globs (overridden by `[rules.ID] exclude`).
    pub exclude: &'static [&'static str],
}

/// Globs shared by the rules that police the whole first-party tree.
const ALL_SRC: &[&str] = &["src/**", "crates/*/src/**"];
/// The crates whose non-test code must be panic-free (`SparsedistError`
/// everywhere).
const ERROR_HYGIENE: &[&str] = &[
    "crates/core/src/**",
    "crates/multicomputer/src/**",
    "crates/cli/src/**",
];
/// Modules that bear on the virtual clock: everything the engine, the
/// ledgers and the scheme drivers execute while charges accumulate.
const CLOCK_BEARING: &[&str] = &["crates/core/src/**", "crates/multicomputer/src/**"];

/// The rule catalog, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D001",
        summary: "wall-clock time source in deterministic code",
        hint: "derive time from the virtual clock / machine model; measure host time outside the clock-bearing modules",
        kind: RuleKind::Tokens(&["Instant", "SystemTime"]),
        include: CLOCK_BEARING,
        exclude: &[],
    },
    Rule {
        id: "D002",
        summary: "ambient entropy source",
        hint: "thread seeds through an explicit u64 (FaultPlan/StdRng::seed_from_u64 style); never ambient RNG or hashing entropy",
        kind: RuleKind::Tokens(&["thread_rng", "from_entropy", "rand::random", "RandomState"]),
        include: ALL_SRC,
        exclude: &[],
    },
    Rule {
        id: "D003",
        summary: "unordered collection in a clock-bearing module",
        hint: "use BTreeMap/BTreeSet (or a sorted Vec) so iteration order — and therefore charge order — is deterministic",
        kind: RuleKind::Tokens(&["HashMap", "HashSet"]),
        include: CLOCK_BEARING,
        exclude: &[],
    },
    Rule {
        id: "P001",
        summary: "raw channel primitive outside the engine",
        hint: "all traffic goes through Env::send/Env::recv so wire costs are charged; only engine.rs owns channels",
        kind: RuleKind::Tokens(&["crossbeam::", "unbounded", "bounded"]),
        include: ALL_SRC,
        exclude: &["crates/multicomputer/src/engine.rs"],
    },
    Rule {
        id: "P002",
        summary: "direct ledger/clock mutation outside the timing layer",
        hint: "book time via Env::phase/Env::charge_ops; ledgers are written only by engine.rs, timing.rs, trace.rs and the collectives",
        kind: RuleKind::Tokens(&["faults_mut", "wire_mut", ".record(Phase::"]),
        include: ALL_SRC,
        exclude: &[
            "crates/multicomputer/src/engine.rs",
            "crates/multicomputer/src/timing.rs",
            "crates/multicomputer/src/trace.rs",
            "crates/multicomputer/src/collectives.rs",
        ],
    },
    Rule {
        id: "E001",
        summary: "`.unwrap()` in non-test code",
        hint: "return SparsedistError (or use expect with a documented invariant and a suppression)",
        kind: RuleKind::Tokens(&[".unwrap()"]),
        include: ERROR_HYGIENE,
        exclude: &[],
    },
    Rule {
        id: "E002",
        summary: "`.expect(...)` in non-test code",
        hint: "return SparsedistError; keep expect only for true invariants, each with a reasoned suppression",
        kind: RuleKind::Tokens(&[".expect("]),
        include: ERROR_HYGIENE,
        exclude: &[],
    },
    Rule {
        id: "E003",
        summary: "`panic!` in non-test code",
        hint: "return SparsedistError; panics are for unreachable states only, each with a reasoned suppression",
        kind: RuleKind::Tokens(&["panic!"]),
        include: ERROR_HYGIENE,
        exclude: &[],
    },
    Rule {
        id: "E004",
        summary: "stub or debug macro left in source",
        hint: "finish the implementation and drop todo!/unimplemented!/dbg!",
        kind: RuleKind::Tokens(&["todo!", "unimplemented!", "dbg!"]),
        include: ALL_SRC,
        exclude: &[],
    },
    Rule {
        id: "E005",
        summary: "public fallible API with a foreign error type",
        hint: "public fallible APIs return Result<_, SparsedistError> (or a typed error convertible into it)",
        kind: RuleKind::TokensRequiring {
            tokens: &["io::Result<", "Box<dyn Error"],
            requires: "pub fn",
        },
        include: ERROR_HYGIENE,
        exclude: &[],
    },
    Rule {
        id: "S001",
        summary: "`unsafe` block without a `// SAFETY:` comment",
        hint: "state the invariant that makes the block sound in a SAFETY comment directly above it",
        kind: RuleKind::UnsafeBlockSafetyComment,
        include: ALL_SRC,
        exclude: &[],
    },
    Rule {
        id: "S002",
        summary: "`unsafe fn` without a `# Safety` doc section",
        hint: "document the caller's obligations under a `# Safety` heading",
        kind: RuleKind::UnsafeFnSafetyDoc,
        include: ALL_SRC,
        exclude: &[],
    },
    Rule {
        id: "W001",
        summary: "narrowing integer cast (`as u8`/`as u16`/`as u32`)",
        hint: "use try_from and surface the failure; narrowing belongs in the core/src/wire/ codec family where it is negotiated",
        kind: RuleKind::Tokens(&["as u8", "as u16", "as u32"]),
        include: ALL_SRC,
        exclude: &["crates/core/src/wire/**"],
    },
    Rule {
        id: "W002",
        summary: "`as usize` cast on a potentially 64-bit value",
        hint: "use usize::try_from so 32-bit hosts fail loudly instead of truncating wire indices",
        kind: RuleKind::Tokens(&["as usize"]),
        include: CLOCK_BEARING,
        exclude: &["crates/core/src/wire/**"],
    },
    Rule {
        id: "C001",
        summary: "`.await` on a non-receive call (yield-point discipline)",
        hint: "the event-loop engine parks tasks only at receives; await recv_async/recv_part/receive_parts/routed_receive/allreduce_sum (or the engine internals), never an arbitrary future",
        // Every listed async fn awaits nothing but receives (allreduce_sum:
        // only `recv_async`), so awaiting one is a receive by proxy.
        kind: RuleKind::AwaitAllowlist(&[
            "recv_async",
            "next_frame_async",
            "frame_wait",
            "wait_recv_async",
            "recv_part",
            "receive_parts",
            "routed_receive",
            "allreduce_sum",
        ]),
        include: ALL_SRC,
        exclude: &[],
    },
    Rule {
        id: "C002",
        summary: "nonblocking post can reach a function exit without a drain",
        hint: "every isend must reach wait_all (and every irecv a wait_recv) on all paths, or the function must document that its caller owns the drain with a suppression",
        kind: RuleKind::PostsDrained(&[
            (&["isend"], &["wait_all"]),
            (&["irecv"], &["wait_recv", "wait_recv_async"]),
        ]),
        include: ALL_SRC,
        exclude: &["crates/multicomputer/src/engine.rs"],
    },
    Rule {
        id: "C003",
        summary: "routed-protocol send without a part-id header on every path",
        hint: "routed frames are dedup'd by part id: push_u64(pid) into the header buffer before any send_part in Router/routed code",
        kind: RuleKind::GuardBeforeCall {
            trigger: "send_part",
            guards: &["push_u64"],
            ctx_fn: &["routed"],
            ctx_impl: &["Router"],
        },
        include: CLOCK_BEARING,
        exclude: &[],
    },
    Rule {
        id: "C004",
        summary: "`Phase::Retry` charged outside recovery code",
        hint: "only the ARQ layer and recovery paths (replay/re-home/timeout handling) may book Phase::Retry; anything else corrupts the fault accounting the chaos tests pin",
        kind: RuleKind::RetryProvenance {
            fn_markers: &["retry", "replay", "recover", "redeliver", "timeout"],
            body_markers: &[
                "PeerDead",
                "RetriesExhausted",
                "retry_within",
                "rehome",
                "FaultKind",
            ],
        },
        include: CLOCK_BEARING,
        exclude: &[
            "crates/multicomputer/src/engine.rs",
            "crates/multicomputer/src/progress.rs",
        ],
    },
    Rule {
        id: "C005",
        summary: "transport-seam access outside crates/multicomputer",
        hint: "Links/EventFabric and the frame/ack mailboxes are the engine's private seam; schemes talk to Env only",
        kind: RuleKind::Tokens(&[
            "Links",
            "EventFabric",
            "push_frame",
            "frame_wait",
            "try_next_frame",
            "push_ack",
            "pop_ack",
        ]),
        include: ALL_SRC,
        exclude: &["crates/multicomputer/src/**"],
    },
    Rule {
        id: "S003",
        summary: "crate root is missing `#![forbid(unsafe_code)]`",
        hint: "crates with no unsafe code pin that fact at the root so a future unsafe block fails to compile instead of slipping in",
        kind: RuleKind::RequiredHeader("forbid(unsafe_code)"),
        include: &[
            "crates/lint/src/lib.rs",
            "crates/lint/src/main.rs",
            "crates/gen/src/lib.rs",
            "crates/cli/src/lib.rs",
            "crates/cli/src/main.rs",
        ],
        exclude: &[],
    },
];

/// Look up a rule by ID.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One finding: where, which rule, and the offending source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule ID (`D001`, …) — `LINT` for malformed suppressions.
    pub rule: &'static str,
    /// The rule summary (or a specific message for `LINT` findings).
    pub message: String,
    /// What to do instead.
    pub hint: String,
    /// The raw source line, for context rendering.
    pub source: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}:{}: {} {}",
            self.path, self.line, self.rule, self.message
        )?;
        writeln!(f, "    | {}", self.source.trim_end())?;
        write!(f, "    = help: {}", self.hint)
    }
}

/// Is `rule` in scope for `path`, honouring config overrides?
fn rule_applies(rule: &Rule, cfg: &Config, path: &str) -> bool {
    let (include, exclude): (Vec<String>, Vec<String>) = match cfg.rules.get(rule.id) {
        Some(scope) => (
            if scope.include.is_empty() {
                rule.include.iter().map(|s| s.to_string()).collect()
            } else {
                scope.include.clone()
            },
            if scope.exclude.is_empty() {
                rule.exclude.iter().map(|s| s.to_string()).collect()
            } else {
                scope.exclude.clone()
            },
        ),
        None => (
            rule.include.iter().map(|s| s.to_string()).collect(),
            rule.exclude.iter().map(|s| s.to_string()).collect(),
        ),
    };
    matches_any(&include, path) && !matches_any(&exclude, path)
}

/// Identifier-boundary-aware substring search: a match is rejected when
/// the needle starts (ends) with an identifier character and the
/// neighbouring haystack character is also one.
fn token_hits(line: &str, needle: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let first_ident = needle.chars().next().is_some_and(is_ident);
    let last_ident = needle.chars().last().is_some_and(is_ident);
    let mut from = 0;
    while let Some(rel) = line[from..].find(needle) {
        let at = from + rel;
        let before_ok =
            !first_ident || at == 0 || !line[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !last_ident
            || !line[at + needle.len()..]
                .chars()
                .next()
                .is_some_and(is_ident);
        if before_ok && after_ok {
            hits.push(at);
        }
        from = at + needle.len();
    }
    hits
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Check one lexed file against every in-scope rule. Returns the
/// violations plus this file's suppression tally (rule ID → count of
/// `lint: allow` annotations naming it).
pub fn check_file(
    path: &str,
    lexed: &LexedFile,
    cfg: &Config,
) -> (Vec<Violation>, BTreeMap<String, usize>) {
    let mut violations = Vec::new();
    let mut tally: BTreeMap<String, usize> = BTreeMap::new();

    // Suppression coverage: line (1-based) -> rule IDs silenced there.
    let mut allowed: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for sup in &lexed.suppressions {
        for rule in &sup.rules {
            if rule_by_id(rule).is_none() {
                violations.push(Violation {
                    path: path.to_string(),
                    line: sup.line,
                    rule: "LINT",
                    message: format!("suppression names unknown rule `{rule}`"),
                    hint: "use an ID from `sparsedist-lint --rules`".to_string(),
                    source: raw_line(lexed, sup.line),
                });
                continue;
            }
            if sup.reason.is_empty() {
                violations.push(Violation {
                    path: path.to_string(),
                    line: sup.line,
                    rule: "LINT",
                    message: format!("suppression of {rule} has no reason"),
                    hint: "write `// lint: allow(RULE) — why this is sound`".to_string(),
                    source: raw_line(lexed, sup.line),
                });
                continue;
            }
            *tally.entry(rule.clone()).or_insert(0) += 1;
            allowed.entry(sup.line).or_default().push(rule.clone());
            allowed.entry(sup.line + 1).or_default().push(rule.clone());
        }
    }
    let is_allowed = |line: usize, rule: &str| {
        allowed
            .get(&line)
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    };

    // The C rules and S003 need token trees; parse once, lazily.
    let needs_parse = RULES.iter().any(|r| {
        matches!(
            r.kind,
            RuleKind::AwaitAllowlist(_)
                | RuleKind::PostsDrained(_)
                | RuleKind::GuardBeforeCall { .. }
                | RuleKind::RetryProvenance { .. }
        ) && rule_applies(r, cfg, path)
    });
    let parsed: Option<ParsedFile> = if needs_parse {
        Some(parse::parse(lexed))
    } else {
        None
    };

    for rule in RULES {
        if !rule_applies(rule, cfg, path) {
            continue;
        }
        let mut flag = |lineno: usize| {
            if !is_allowed(lineno, rule.id) {
                violations.push(Violation {
                    path: path.to_string(),
                    line: lineno,
                    rule: rule.id,
                    message: rule.summary.to_string(),
                    hint: rule.hint.to_string(),
                    source: raw_line(lexed, lineno),
                });
            }
        };
        match rule.kind {
            RuleKind::Tokens(tokens) => {
                for (idx, line) in lexed.code_lines.iter().enumerate() {
                    if lexed.test_mask.get(idx).copied().unwrap_or(false) {
                        continue;
                    }
                    if tokens.iter().any(|t| !token_hits(line, t).is_empty()) {
                        flag(idx + 1);
                    }
                }
            }
            RuleKind::TokensRequiring { tokens, requires } => {
                for (idx, line) in lexed.code_lines.iter().enumerate() {
                    if lexed.test_mask.get(idx).copied().unwrap_or(false) {
                        continue;
                    }
                    if line.contains(requires)
                        && tokens.iter().any(|t| !token_hits(line, t).is_empty())
                    {
                        flag(idx + 1);
                    }
                }
            }
            RuleKind::UnsafeBlockSafetyComment => {
                for lineno in unsafe_blocks_without_safety(lexed) {
                    flag(lineno);
                }
            }
            RuleKind::UnsafeFnSafetyDoc => {
                for lineno in unsafe_fns_without_safety_doc(lexed) {
                    flag(lineno);
                }
            }
            RuleKind::AwaitAllowlist(allowed_callees) => {
                let Some(p) = parsed.as_ref() else { continue };
                for site in parse::awaits(&p.roots) {
                    if masked(lexed, site.line) {
                        continue;
                    }
                    let ok = site
                        .callee
                        .as_deref()
                        .is_some_and(|c| allowed_callees.contains(&c));
                    if !ok {
                        flag(site.line);
                    }
                }
            }
            RuleKind::PostsDrained(pairs) => {
                let Some(p) = parsed.as_ref() else { continue };
                for f in &p.fns {
                    let events = flow::events_of(&f.body);
                    for (triggers, resolvers) in pairs {
                        for lineno in flow::pending_at_exit(&events, triggers, resolvers) {
                            if !masked(lexed, lineno) {
                                flag(lineno);
                            }
                        }
                    }
                }
            }
            RuleKind::GuardBeforeCall {
                trigger,
                guards,
                ctx_fn,
                ctx_impl,
            } => {
                let Some(p) = parsed.as_ref() else { continue };
                for f in p
                    .fns
                    .iter()
                    .filter(|f| in_protocol_ctx(f, ctx_fn, ctx_impl))
                {
                    let events = flow::events_of(&f.body);
                    for lineno in flow::unguarded(&events, trigger, guards) {
                        if !masked(lexed, lineno) {
                            flag(lineno);
                        }
                    }
                }
            }
            RuleKind::RetryProvenance {
                fn_markers,
                body_markers,
            } => {
                let Some(p) = parsed.as_ref() else { continue };
                for f in &p.fns {
                    let charges = flow::retry_charge_lines(&f.body.children);
                    if charges.is_empty() || is_recovery_fn(f, fn_markers, body_markers) {
                        continue;
                    }
                    for lineno in charges {
                        if !masked(lexed, lineno) {
                            flag(lineno);
                        }
                    }
                }
            }
            RuleKind::RequiredHeader(token) => {
                let present = lexed
                    .code_lines
                    .iter()
                    .any(|l| !token_hits(l, token).is_empty());
                if !present {
                    flag(1);
                }
            }
        }
    }
    violations.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (violations, tally)
}

fn masked(lexed: &LexedFile, lineno: usize) -> bool {
    lexed
        .test_mask
        .get(lineno.saturating_sub(1))
        .copied()
        .unwrap_or(false)
}

/// C003 context: the function name carries a protocol marker, or the
/// method belongs to a protocol `impl` type.
fn in_protocol_ctx(f: &FnItem, ctx_fn: &[&str], ctx_impl: &[&str]) -> bool {
    ctx_fn.iter().any(|m| f.name.contains(m))
        || f.impl_ctx.as_deref().is_some_and(|c| ctx_impl.contains(&c))
}

/// C004 context: the function's name or body shows it is recovery code.
fn is_recovery_fn(f: &FnItem, fn_markers: &[&str], body_markers: &[&str]) -> bool {
    fn_markers.iter().any(|m| f.name.contains(m))
        || body_markers
            .iter()
            .any(|m| flow::contains_ident(&f.body.children, m))
}

fn raw_line(lexed: &LexedFile, lineno: usize) -> String {
    lexed
        .raw_lines
        .get(lineno.saturating_sub(1))
        .cloned()
        .unwrap_or_default()
}

/// Lines (1-based) with an `unsafe` block lacking a `SAFETY:` comment on
/// the same line or within the five preceding lines.
fn unsafe_blocks_without_safety(lexed: &LexedFile) -> Vec<usize> {
    let mut out = Vec::new();
    for (idx, line) in lexed.code_lines.iter().enumerate() {
        if lexed.test_mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let Some(at) = token_hits(line, "unsafe").first().copied() else {
            continue;
        };
        // `unsafe fn` / `unsafe impl` / `unsafe trait` are S002 territory.
        let rest = line[at + "unsafe".len()..].trim_start();
        if rest.starts_with("fn") || rest.starts_with("impl") || rest.starts_with("trait") {
            continue;
        }
        let lookback = idx.saturating_sub(5);
        let documented = (lookback..=idx).any(|j| {
            lexed
                .comment_lines
                .get(j)
                .is_some_and(|l| l.contains("SAFETY:"))
        });
        if !documented {
            out.push(idx + 1);
        }
    }
    out
}

/// Lines (1-based) declaring an `unsafe fn` whose doc comment lacks a
/// `# Safety` section.
fn unsafe_fns_without_safety_doc(lexed: &LexedFile) -> Vec<usize> {
    let mut out = Vec::new();
    for (idx, line) in lexed.code_lines.iter().enumerate() {
        if lexed.test_mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let has_unsafe_fn = token_hits(line, "unsafe")
            .iter()
            .any(|&at| line[at + "unsafe".len()..].trim_start().starts_with("fn"));
        if !has_unsafe_fn {
            continue;
        }
        // Walk the contiguous doc/attribute block above the declaration.
        let mut documented = false;
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let raw = lexed.raw_lines[j].trim();
            if raw.starts_with("///")
                || raw.starts_with("//!")
                || raw.starts_with("#[")
                || raw.starts_with("//")
            {
                if lexed
                    .comment_lines
                    .get(j)
                    .is_some_and(|l| l.contains("# Safety"))
                {
                    documented = true;
                    break;
                }
            } else {
                break;
            }
        }
        if !documented {
            out.push(idx + 1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn cfg() -> Config {
        Config::default()
    }

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_file(path, &lex(src), &cfg()).0
    }

    #[test]
    fn token_boundaries() {
        assert_eq!(token_hits("let t = Instant::now();", "Instant").len(), 1);
        assert!(token_hits("let t = MyInstant::now();", "Instant").is_empty());
        assert!(token_hits("let bounded_queue = 3;", "bounded").is_empty());
        assert_eq!(
            token_hits("let (tx, rx) = unbounded();", "unbounded").len(),
            1
        );
        assert_eq!(token_hits("x as u32;", "as u32").len(), 1);
        assert!(token_hits("x as u320;", "as u32").is_empty());
    }

    #[test]
    fn d_rules_fire_in_scope_only() {
        let src = "use std::time::Instant;\n";
        assert_eq!(check("crates/core/src/gather.rs", src)[0].rule, "D001");
        assert!(check("crates/gen/src/random.rs", src).is_empty());
    }

    #[test]
    fn e_rules_skip_tests() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn g() { y.unwrap(); }\n}\n";
        let v = check("crates/core/src/gather.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn suppressions_silence_and_tally() {
        let src = "fn f() {\n  // lint: allow(E001) — poisoned mutex means a rank already panicked\n  x.unwrap();\n}\n";
        let (v, tally) = check_file("crates/core/src/gather.rs", &lex(src), &cfg());
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(tally["E001"], 1);
    }

    #[test]
    fn reasonless_suppressions_are_violations() {
        let src = "// lint: allow(E001)\nx.unwrap();\n";
        let v = check("crates/core/src/gather.rs", src);
        assert!(v
            .iter()
            .any(|v| v.rule == "LINT" && v.message.contains("no reason")));
        // The E001 itself still fires: a bad suppression silences nothing.
        assert!(v.iter().any(|v| v.rule == "E001"));
    }

    #[test]
    fn unknown_rule_suppression_is_flagged() {
        let src = "// lint: allow(Z999) — whatever\nlet x = 1;\n";
        let v = check("crates/core/src/gather.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("unknown rule"), "{}", v[0].message);
    }

    #[test]
    fn safety_comment_satisfies_s001() {
        let bad = "fn f() {\n  let b = unsafe { transmute(x) };\n}\n";
        let good = "fn f() {\n  // SAFETY: x is a POD byte array.\n  let b = unsafe { transmute(x) };\n}\n";
        assert_eq!(check("crates/core/src/encode.rs", bad)[0].rule, "S001");
        assert!(check("crates/core/src/encode.rs", good).is_empty());
    }

    #[test]
    fn safety_doc_satisfies_s002() {
        let bad = "/// Does things.\npub unsafe fn f() {}\n";
        let good =
            "/// Does things.\n///\n/// # Safety\n/// Caller guarantees x.\npub unsafe fn f() {}\n";
        let v = check("crates/core/src/encode.rs", bad);
        assert!(v.iter().any(|v| v.rule == "S002"), "{v:?}");
        assert!(check("crates/core/src/encode.rs", good).is_empty());
    }

    #[test]
    fn w001_exempts_the_wire_family_by_default() {
        let src = "let x = big as u32;\n";
        // A truncating cast outside the wire family still fires…
        assert_eq!(check("crates/core/src/encode.rs", src)[0].rule, "W001");
        // …while every module of the codec stack is exempt.
        for path in [
            "crates/core/src/wire/mod.rs",
            "crates/core/src/wire/codec.rs",
            "crates/core/src/wire/varint.rs",
            "crates/core/src/wire/bitpack.rs",
            "crates/core/src/wire/v3.rs",
        ] {
            assert!(check(path, src).is_empty(), "{path}");
        }
        // The exemption does not leak upward or sideways.
        assert_eq!(check("crates/core/src/schemes/cfs.rs", src)[0].rule, "W001");
    }

    #[test]
    fn e005_requires_pub_fn_on_line() {
        let src = "pub fn load(p: &Path) -> io::Result<Vec<u8>> {\n";
        assert_eq!(check("crates/cli/src/commands.rs", src)[0].rule, "E005");
        let private = "fn load(p: &Path) -> io::Result<Vec<u8>> {\n";
        assert!(check("crates/cli/src/commands.rs", private).is_empty());
    }

    #[test]
    fn config_override_rescopes_a_rule() {
        let mut c = Config::default();
        c.rules.insert(
            "W001".to_string(),
            crate::config::RuleScope {
                include: vec!["crates/ekmr/src/**".to_string()],
                exclude: vec![],
            },
        );
        let lexed = lex("let x = big as u16;\n");
        let (in_scope, _) = check_file("crates/ekmr/src/sparse3.rs", &lexed, &c);
        assert_eq!(in_scope.len(), 1);
        let (out_of_scope, _) = check_file("crates/core/src/encode.rs", &lexed, &c);
        assert!(out_of_scope.is_empty());
    }
}
