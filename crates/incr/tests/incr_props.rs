//! Property tests pinning the crate's one invariant: after every prefix
//! of a random edit script, every incrementally-maintained query answer
//! is **bit-identical** to recomputing that query from scratch on the
//! current inputs — same fact listings, same null labels, same round
//! counts, same budget-exhaustion and cyclic-refusal diagnostics.
//!
//! The scratch side is `IncrOptions::scratch`, which bypasses the memo
//! table and runs the shared compute functions fresh on every query; the
//! red-green machinery can therefore only differ by serving a stale
//! memo, which is exactly what these tests would catch.

use ndl_gen::{random_edit_script, random_program, EditGenOptions, ProgramGenOptions};
use ndl_incr::{parse_edit_script, EditOp, IncrDb, IncrOptions, QueryKey};
use proptest::prelude::*;

/// Statement lines (non-blank, non-comment, non-fact) of a program text.
fn stmt_count(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with("fact:"))
        .count()
}

/// Replays `script` against an incremental and a scratch session in
/// lockstep, asserting per-query bit-identity.
fn assert_parity(src: &str, script: &str, budget: Option<usize>) {
    let ops = parse_edit_script(script).expect("generated scripts parse");
    let mk = |scratch| IncrOptions {
        budget,
        scratch,
        ..IncrOptions::default()
    };
    let mut incr = IncrDb::new(src, mk(false)).expect("program loads");
    let mut scratch = IncrDb::new(src, mk(true)).expect("program loads");
    for (lineno, op) in &ops {
        let a = incr.apply(op).expect("edit applies incrementally");
        let b = scratch.apply(op).expect("edit applies from scratch");
        if let EditOp::Query(key) = op {
            let a = a.expect("query ops return output");
            let b = b.expect("query ops return output");
            assert_eq!(
                a,
                b,
                "script line {lineno}: {} diverged from scratch\nprogram:\n{src}\nscript:\n{script}",
                key.label()
            );
        }
    }
}

/// A splitmix64 stream: the tricky-name generator's randomness.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Relations and arities of the tricky-name sessions. Names prefix one
/// another (`R`, `RS`, `R'`), carry primes and multi-byte letters; `Zé`,
/// `Z'`, the nullary `N` and the 5-ary `W` appear in no statement, so
/// their facts are fact-only relations.
const TRICKY_RELS: [(&str, usize); 9] = [
    ("N", 0),
    ("W", 5),
    ("R", 2),
    ("RS", 1),
    ("R'", 2),
    ("Rß", 1),
    ("Q", 3),
    ("Zé", 1),
    ("Z'", 2),
];

/// Constants whose rendered-line order differs from name order: `a'`
/// sorts before `a` inside a line (`'` is below `,` and `)`).
const TRICKY_CONSTS: [&str; 10] = ["a", "a'", "a''", "ab", "a0", "a_", "é", "éa", "b'", "ü"];

/// Statement lines over [`TRICKY_RELS`]. The last one uses `RS` at
/// arity 2: set in place of another, it makes `RS` facts clash.
const TRICKY_STMTS: [&str; 7] = [
    "R(x,y) -> R'(y,x)",
    "R'(x,y) & RS(x) -> exists z Q(x,y,z)",
    "RS(x) -> exists y R(x,y)",
    "Q(x,y,z) -> Rß(z)",
    "egd: R(x,y) & R(x,z) -> y = z",
    "Rß(x) -> RS(x)",
    "RS(x,y) -> R(x,y)",
];

/// A random fact over the tricky names.
fn tricky_fact(mix: &mut Mix) -> String {
    let (rel, arity) = TRICKY_RELS[mix.below(TRICKY_RELS.len())];
    let args: Vec<&str> = (0..arity).map(|_| mix.pick(&TRICKY_CONSTS)).collect();
    format!("{rel}({})", args.join(","))
}

/// A session over the tricky names and an edit script for it. Some
/// sessions start with no facts (assumed-sources analysis).
fn tricky_session(seed: u64) -> (String, String) {
    let mut mix = Mix(seed);
    let mut src = String::new();
    let stmts = 1 + mix.below(4);
    for _ in 0..stmts {
        src.push_str(mix.pick(&TRICKY_STMTS[..6]));
        src.push('\n');
    }
    let mut facts = Vec::new();
    for _ in 0..mix.below(3) * mix.below(6) {
        let f = tricky_fact(&mut mix);
        src.push_str(&format!("fact: {f}\n"));
        facts.push(f);
    }
    let mut script = String::new();
    for _ in 0..14 {
        let line = match mix.below(10) {
            0..=2 => {
                let f = tricky_fact(&mut mix);
                facts.push(f.clone());
                format!(r#"{{"op":"insert","fact":"{f}"}}"#)
            }
            3 | 4 if !facts.is_empty() => {
                let f = facts.swap_remove(mix.below(facts.len()));
                format!(r#"{{"op":"retract","fact":"{f}"}}"#)
            }
            5 => r#"{"op":"compact"}"#.to_string(),
            6 => format!(
                r#"{{"op":"set-stmt","index":{},"text":"{}"}}"#,
                mix.below(stmts),
                mix.pick(&TRICKY_STMTS)
            ),
            7 => r#"{"op":"query","q":"core"}"#.to_string(),
            8 => r#"{"op":"query","q":"blocks"}"#.to_string(),
            _ => r#"{"op":"query","q":"chase"}"#.to_string(),
        };
        script.push_str(&line);
        script.push('\n');
    }
    script.push_str("{\"op\":\"query\",\"q\":\"chase\"}\n");
    (src, script)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sessions over primed and multi-byte names, relation names that
    /// prefix one another, fact-only relations, fact-free starts and
    /// arity clashes: where numbering the store directly could drift
    /// from parsing the canonical text.
    #[test]
    fn tricky_names_match_scratch(seed in 0u64..1_000_000) {
        let (src, script) = tricky_session(seed);
        assert_parity(&src, &script, Some(40));
    }

    /// Terminating-leaning programs, mixed edits, every query kind.
    #[test]
    fn incremental_matches_scratch(seed in 0u64..10_000, edit_seed in 0u64..10_000) {
        let program = random_program(&ProgramGenOptions {
            statements: 10,
            relations: 5,
            recursion_prob: 0.1,
            fact_prob: 0.35,
            seed,
            ..ProgramGenOptions::default()
        });
        let script = random_edit_script(&EditGenOptions {
            ops: 18,
            relations: 5,
            statements: stmt_count(&program),
            seed: edit_seed,
            ..EditGenOptions::default()
        });
        assert_parity(&program, &script, None);
    }

    /// Recursion-heavy programs under a tight step budget: parity of
    /// `budget exhausted` progress lines and of the `chase unavailable`
    /// propagation into core/blocks.
    #[test]
    fn budget_exhaustion_parity(seed in 0u64..10_000, edit_seed in 0u64..10_000) {
        let program = random_program(&ProgramGenOptions {
            statements: 8,
            relations: 4,
            recursion_prob: 0.7,
            fact_prob: 0.4,
            seed,
            ..ProgramGenOptions::default()
        });
        let script = random_edit_script(&EditGenOptions {
            ops: 12,
            relations: 4,
            statements: stmt_count(&program),
            churn_prob: 0.3,
            seed: edit_seed,
            ..EditGenOptions::default()
        });
        assert_parity(&program, &script, Some(5));
    }

    /// The same recursion-heavy mix with *no* budget: cyclic programs
    /// refuse (`NonTerminating`), and the refusal diagnostic must be
    /// maintained incrementally like any other value.
    #[test]
    fn cyclic_refusal_parity(seed in 0u64..10_000, edit_seed in 0u64..10_000) {
        let program = random_program(&ProgramGenOptions {
            statements: 8,
            relations: 4,
            recursion_prob: 0.7,
            fact_prob: 0.4,
            seed,
            ..ProgramGenOptions::default()
        });
        let script = random_edit_script(&EditGenOptions {
            ops: 12,
            relations: 4,
            statements: stmt_count(&program),
            seed: edit_seed,
            ..EditGenOptions::default()
        });
        assert_parity(&program, &script, None);
    }

    /// Replay-closure: after a full script, a *fresh* session loaded from
    /// the incremental session's canonical source answers identically —
    /// the canonical text really is the whole state.
    #[test]
    fn canonical_src_is_the_whole_state(seed in 0u64..10_000, edit_seed in 0u64..10_000) {
        let program = random_program(&ProgramGenOptions {
            statements: 10,
            relations: 5,
            fact_prob: 0.35,
            seed,
            ..ProgramGenOptions::default()
        });
        let script = random_edit_script(&EditGenOptions {
            ops: 14,
            relations: 5,
            statements: stmt_count(&program),
            seed: edit_seed,
            ..EditGenOptions::default()
        });
        let ops = parse_edit_script(&script).unwrap();
        let mut db = IncrDb::new(&program, IncrOptions::default()).unwrap();
        db.apply_script(&ops).unwrap();
        let mut replay = IncrDb::new(&db.canonical_src(), IncrOptions::default()).unwrap();
        for key in [QueryKey::Analysis, QueryKey::Chase, QueryKey::Core, QueryKey::Blocks] {
            prop_assert_eq!(db.query(key), replay.query(key), "{} diverged", key.label());
        }
    }
}
