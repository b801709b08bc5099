//! A per-function dataflow walk over token trees.
//!
//! [`events_of`] lowers a function body ([`crate::parse::Group`]) into a
//! small event language — calls, `?` exits, `return`s, branches, loops —
//! and two all-paths analyses answer the questions the C rules ask:
//!
//! * [`pending_at_exit`]: which *trigger* calls (`isend` posts) can
//!   reach a function exit without a *resolver* (`wait_all`) on that
//!   path;
//! * [`unguarded`]: which *trigger* calls (`send_part` in routed code)
//!   are reachable without a *guard* (`push_u64` part-id header) having
//!   run first on every path.
//!
//! Both are abstract interpretations over the event tree: branch arms
//! are joined by set-union (pending) / all-arms-must-agree (guarded),
//! and a loop body is analysed once from its entry state and joined with
//! the zero-iteration path. `?` exits are deliberately exempt from
//! [`pending_at_exit`]: a post abandoned on an error path is the ARQ
//! layer's abort contract, not a leak (DESIGN.md §13 lists this and the
//! other soundness caveats).

use crate::parse::{is_ident_atom, Group, Tree};
use std::collections::BTreeSet;

/// One control-flow-relevant event inside a function body.
#[derive(Debug)]
pub enum Ev {
    /// A call `name(…)` (method or free; macros excluded).
    Call {
        /// The callee identifier.
        name: String,
        /// 1-based line of the callee.
        line: usize,
    },
    /// A `?` operator — an early error exit.
    Question(usize),
    /// A `return` — an early normal exit.
    Return(usize),
    /// `if`/`else` chain or `match`: one event list per arm. A missing
    /// `else` contributes an empty arm.
    Branch(Vec<Vec<Ev>>),
    /// `loop`/`while`/`for` body (may run zero times).
    Loop(Vec<Ev>),
}

/// Lower a body group into an event sequence.
pub fn events_of(body: &Group) -> Vec<Ev> {
    events_of_trees(&body.children)
}

const KEYWORDS: &[&str] = &[
    "if", "else", "match", "loop", "while", "for", "return", "fn", "let", "mut", "in", "as",
    "move", "async", "await", "break", "continue", "ref", "pub", "use", "where", "impl", "dyn",
];

fn events_of_trees(trees: &[Tree]) -> Vec<Ev> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            Tree::Atom(t) => match t.text.as_str() {
                "if" => {
                    i = parse_if(trees, i, &mut out);
                    continue;
                }
                "match" => {
                    i = parse_match(trees, i, &mut out);
                    continue;
                }
                "loop" | "while" | "for" => {
                    let (head_end, body) = find_body(trees, i + 1);
                    // Condition / iterator expressions run before the body.
                    out.extend(events_of_trees(&trees[i + 1..head_end]));
                    match body {
                        Some(g) => {
                            out.push(Ev::Loop(events_of_trees(&g.children)));
                            i = head_end + 1;
                        }
                        None => i = head_end,
                    }
                    continue;
                }
                "return" => {
                    // The returned expression evaluates before the exit.
                    let mut j = i + 1;
                    while j < trees.len() {
                        if let Tree::Atom(a) = &trees[j] {
                            if a.text == ";" {
                                break;
                            }
                        }
                        j += 1;
                    }
                    out.extend(events_of_trees(&trees[i + 1..j]));
                    out.push(Ev::Return(t.line));
                    i = j + 1;
                    continue;
                }
                "?" => out.push(Ev::Question(t.line)),
                name if is_ident_atom(name) && !KEYWORDS.contains(&name) => {
                    // `name(…)` is a call unless it is a macro (`name!`).
                    if let Some(Tree::Group(g)) = trees.get(i + 1) {
                        if g.delim == '(' {
                            out.extend(events_of_trees(&g.children));
                            out.push(Ev::Call {
                                name: name.to_string(),
                                line: t.line,
                            });
                            i += 2;
                            continue;
                        }
                    }
                }
                _ => {}
            },
            Tree::Group(g) => out.extend(events_of_trees(&g.children)),
        }
        i += 1;
    }
    out
}

/// From `from`, locate the next `{}` group at this level (the body) and
/// return (index-of-body, body). Stops at `;`.
fn find_body(trees: &[Tree], from: usize) -> (usize, Option<&Group>) {
    let mut j = from;
    while j < trees.len() {
        match &trees[j] {
            Tree::Group(g) if g.delim == '{' => return (j, Some(g)),
            Tree::Atom(a) if a.text == ";" => return (j, None),
            _ => j += 1,
        }
    }
    (j, None)
}

/// Parse an `if`/`else if`/`else` chain starting at `at` (the `if`
/// atom); push condition events then one [`Ev::Branch`]; return the
/// index just past the chain.
fn parse_if(trees: &[Tree], at: usize, out: &mut Vec<Ev>) -> usize {
    let mut arms: Vec<Vec<Ev>> = Vec::new();
    let mut i = at;
    loop {
        // `i` points at `if`. Condition runs on every path so far.
        let (body_at, body) = find_body(trees, i + 1);
        out.extend(events_of_trees(&trees[i + 1..body_at]));
        match body {
            Some(g) => arms.push(events_of_trees(&g.children)),
            None => {
                arms.push(Vec::new());
                out.push(Ev::Branch(arms));
                return body_at;
            }
        }
        i = body_at + 1;
        // `else {…}` | `else if …` | end of chain.
        match trees.get(i).and_then(|t| match t {
            Tree::Atom(a) => Some(a.text.as_str()),
            Tree::Group(_) => None,
        }) {
            Some("else") => match trees.get(i + 1) {
                Some(Tree::Group(g)) if g.delim == '{' => {
                    arms.push(events_of_trees(&g.children));
                    out.push(Ev::Branch(arms));
                    return i + 2;
                }
                Some(Tree::Atom(a)) if a.text == "if" => {
                    i += 1;
                    continue;
                }
                _ => break,
            },
            _ => break,
        }
    }
    // No `else`: the fall-through arm is empty.
    arms.push(Vec::new());
    out.push(Ev::Branch(arms));
    i
}

/// Parse a `match` at `at`: scrutinee events, then a branch with one arm
/// per `=>`. Arm patterns and guards contribute to their own arm.
fn parse_match(trees: &[Tree], at: usize, out: &mut Vec<Ev>) -> usize {
    let (body_at, body) = find_body(trees, at + 1);
    out.extend(events_of_trees(&trees[at + 1..body_at]));
    let Some(g) = body else { return body_at };
    let mut arms: Vec<Vec<Ev>> = Vec::new();
    let kids = &g.children;
    let mut i = 0;
    let mut seg_start = 0;
    while i < kids.len() {
        let is_arrow = matches!(&kids[i], Tree::Atom(a) if a.text == "=>");
        if !is_arrow {
            i += 1;
            continue;
        }
        // Pattern/guard events precede the arm body on that arm's path.
        let mut arm = events_of_trees(&kids[seg_start..i]);
        i += 1;
        match kids.get(i) {
            Some(Tree::Group(b)) if b.delim == '{' => {
                arm.extend(events_of_trees(&b.children));
                i += 1;
                // Optional trailing comma.
                if matches!(kids.get(i), Some(Tree::Atom(a)) if a.text == ",") {
                    i += 1;
                }
            }
            _ => {
                // Expression arm: runs to the next top-level comma.
                let start = i;
                while i < kids.len() {
                    if matches!(&kids[i], Tree::Atom(a) if a.text == ",") {
                        break;
                    }
                    i += 1;
                }
                arm.extend(events_of_trees(&kids[start..i]));
                if i < kids.len() {
                    i += 1;
                }
            }
        }
        arms.push(arm);
        seg_start = i;
    }
    if !arms.is_empty() {
        out.push(Ev::Branch(arms));
    }
    body_at + 1
}

/// Lines of *trigger* calls that can reach a function exit (fall-through
/// or `return`) with no *resolver* call on that path. `?` exits are
/// exempt (ARQ abort contract).
pub fn pending_at_exit(events: &[Ev], triggers: &[&str], resolvers: &[&str]) -> Vec<usize> {
    let mut reported = BTreeSet::new();
    let end = walk_pending(events, &BTreeSet::new(), triggers, resolvers, &mut reported);
    reported.extend(end);
    reported.into_iter().collect()
}

fn walk_pending(
    events: &[Ev],
    incoming: &BTreeSet<usize>,
    triggers: &[&str],
    resolvers: &[&str],
    reported: &mut BTreeSet<usize>,
) -> BTreeSet<usize> {
    let mut pending = incoming.clone();
    for ev in events {
        match ev {
            Ev::Call { name, line } => {
                if resolvers.contains(&name.as_str()) {
                    pending.clear();
                } else if triggers.contains(&name.as_str()) {
                    pending.insert(*line);
                }
            }
            Ev::Question(_) => {}
            Ev::Return(_) => {
                reported.extend(pending.iter().copied());
            }
            Ev::Branch(arms) => {
                let mut joined = BTreeSet::new();
                for arm in arms {
                    joined.extend(walk_pending(arm, &pending, triggers, resolvers, reported));
                }
                pending = joined;
            }
            Ev::Loop(body) => {
                let once = walk_pending(body, &pending, triggers, resolvers, reported);
                pending.extend(once);
            }
        }
    }
    pending
}

/// Lines of *trigger* calls reachable before a *guard* call has run on
/// every path leading there.
pub fn unguarded(events: &[Ev], trigger: &str, guards: &[&str]) -> Vec<usize> {
    let mut reported = BTreeSet::new();
    walk_guarded(events, false, trigger, guards, &mut reported);
    reported.into_iter().collect()
}

fn walk_guarded(
    events: &[Ev],
    incoming: bool,
    trigger: &str,
    guards: &[&str],
    reported: &mut BTreeSet<usize>,
) -> bool {
    let mut guarded = incoming;
    for ev in events {
        match ev {
            Ev::Call { name, line } => {
                if guards.contains(&name.as_str()) {
                    guarded = true;
                } else if name == trigger && !guarded {
                    reported.insert(*line);
                }
            }
            Ev::Branch(arms) => {
                let mut all = !arms.is_empty();
                for arm in arms {
                    all &= walk_guarded(arm, guarded, trigger, guards, reported);
                }
                guarded = guarded || all;
            }
            Ev::Loop(body) => {
                // Zero-iteration path: the loop cannot establish the guard.
                walk_guarded(body, guarded, trigger, guards, reported);
            }
            Ev::Question(_) | Ev::Return(_) => {}
        }
    }
    guarded
}

/// Does the forest contain the token sequence `Phase :: Retry` inside
/// the argument group of a `phase(…)`/`record(…)`/`charge(…)` call?
/// Returns the lines of such charges.
pub fn retry_charge_lines(trees: &[Tree]) -> Vec<usize> {
    let mut out = Vec::new();
    scan_retry(trees, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

const CHARGE_FNS: &[&str] = &["phase", "record", "charge", "charge_ops"];

fn scan_retry(trees: &[Tree], out: &mut Vec<usize>) {
    for (i, tree) in trees.iter().enumerate() {
        match tree {
            Tree::Group(g) => scan_retry(&g.children, out),
            Tree::Atom(t) if CHARGE_FNS.contains(&t.text.as_str()) => {
                if let Some(Tree::Group(g)) = trees.get(i + 1) {
                    if g.delim == '(' {
                        if let Some(line) = find_retry_token(&g.children) {
                            out.push(line);
                        }
                    }
                }
            }
            Tree::Atom(_) => {}
        }
    }
}

fn find_retry_token(trees: &[Tree]) -> Option<usize> {
    for (i, tree) in trees.iter().enumerate() {
        match tree {
            Tree::Group(g) => {
                if let Some(l) = find_retry_token(&g.children) {
                    return Some(l);
                }
            }
            Tree::Atom(t) if t.text == "Phase" => {
                if atomic(trees.get(i + 1)) == Some("::")
                    && atomic(trees.get(i + 2)) == Some("Retry")
                {
                    return Some(t.line);
                }
            }
            Tree::Atom(_) => {}
        }
    }
    None
}

fn atomic(tree: Option<&Tree>) -> Option<&str> {
    match tree {
        Some(Tree::Atom(t)) => Some(t.text.as_str()),
        _ => None,
    }
}

/// Does the forest contain `needle` as an identifier atom anywhere?
pub fn contains_ident(trees: &[Tree], needle: &str) -> bool {
    trees.iter().any(|t| match t {
        Tree::Atom(a) => a.text == needle,
        Tree::Group(g) => contains_ident(&g.children, needle),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn body_events(src: &str) -> Vec<Ev> {
        let p = parse(&lex(src));
        events_of(&p.fns[0].body)
    }

    #[test]
    fn straight_line_post_then_wait_is_clean() {
        let ev =
            body_events("fn f(env: &mut Env) {\n    env.isend(dst, b);\n    env.wait_all();\n}\n");
        assert!(pending_at_exit(&ev, &["isend"], &["wait_all"]).is_empty());
    }

    #[test]
    fn post_without_wait_is_pending() {
        let ev = body_events("fn f(env: &mut Env) {\n    env.isend(dst, b);\n}\n");
        assert_eq!(pending_at_exit(&ev, &["isend"], &["wait_all"]), vec![2]);
    }

    #[test]
    fn one_branch_missing_the_wait_is_pending() {
        let src = "fn f(env: &mut Env) {\n    env.isend(dst, b);\n    if fast {\n        env.wait_all();\n    }\n}\n";
        let ev = body_events(src);
        assert_eq!(pending_at_exit(&ev, &["isend"], &["wait_all"]), vec![2]);
        let src2 = "fn f(env: &mut Env) {\n    env.isend(dst, b);\n    if fast {\n        env.wait_all();\n    } else {\n        env.wait_all();\n    }\n}\n";
        let ev2 = body_events(src2);
        assert!(pending_at_exit(&ev2, &["isend"], &["wait_all"]).is_empty());
    }

    #[test]
    fn early_return_with_pending_post_is_reported() {
        let src = "fn f(env: &mut Env) {\n    env.isend(dst, b);\n    if done {\n        return 0;\n    }\n    env.wait_all();\n}\n";
        let ev = body_events(src);
        assert_eq!(pending_at_exit(&ev, &["isend"], &["wait_all"]), vec![2]);
    }

    #[test]
    fn question_mark_exits_are_exempt() {
        let src = "fn f(env: &mut Env) -> Result<(), E> {\n    env.isend(dst, b)?;\n    env.other()?;\n    env.wait_all();\n    Ok(())\n}\n";
        let ev = body_events(src);
        assert!(pending_at_exit(&ev, &["isend"], &["wait_all"]).is_empty());
    }

    #[test]
    fn loop_post_resolved_after_loop_is_clean() {
        let src = "fn f(env: &mut Env) {\n    for dst in 0..n {\n        env.isend(dst, b);\n    }\n    env.wait_all();\n}\n";
        let ev = body_events(src);
        assert!(pending_at_exit(&ev, &["isend"], &["wait_all"]).is_empty());
    }

    #[test]
    fn match_arm_missing_the_wait_is_pending() {
        let src = "fn f(env: &mut Env) {\n    env.isend(dst, b);\n    match mode {\n        Mode::A => env.wait_all(),\n        Mode::B => {}\n    }\n}\n";
        let ev = body_events(src);
        assert_eq!(pending_at_exit(&ev, &["isend"], &["wait_all"]), vec![2]);
    }

    #[test]
    fn guard_before_trigger_on_all_paths_is_clean() {
        let src = "fn ship(&mut self) {\n    buf.push_u64(pid);\n    if big {\n        self.send_part(env, buf);\n    } else {\n        self.send_part(env, buf);\n    }\n}\n";
        let ev = body_events(src);
        assert!(unguarded(&ev, "send_part", &["push_u64"]).is_empty());
    }

    #[test]
    fn trigger_without_guard_is_reported() {
        let src =
            "fn ship(&mut self) {\n    self.send_part(env, buf);\n    buf.push_u64(pid);\n}\n";
        let ev = body_events(src);
        assert_eq!(unguarded(&ev, "send_part", &["push_u64"]), vec![2]);
    }

    #[test]
    fn guard_in_one_branch_only_does_not_cover_later_triggers() {
        let src = "fn ship(&mut self) {\n    if hdr {\n        buf.push_u64(pid);\n    }\n    self.send_part(env, buf);\n}\n";
        let ev = body_events(src);
        assert_eq!(unguarded(&ev, "send_part", &["push_u64"]), vec![5]);
    }

    #[test]
    fn retry_charges_are_found_inside_charge_calls_only() {
        let src = "fn f(env: &mut Env) {\n    env.phase(Phase::Retry, |env| replay(env));\n    let label = Phase::Retry;\n}\n";
        let p = parse(&lex(src));
        assert_eq!(retry_charge_lines(&p.roots), vec![2]);
    }

    #[test]
    fn contains_ident_walks_groups() {
        let p = parse(&lex(
            "fn f() { match e { E::PeerDead => retry(), _ => {} } }\n",
        ));
        assert!(contains_ident(&p.roots, "PeerDead"));
        assert!(!contains_ident(&p.roots, "Stalled"));
    }
}
