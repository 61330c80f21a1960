//! The four crypto-invariant rules.
//!
//! Each rule is a pure function over the token stream of one file; see
//! `docs/ANALYSIS.md` for the protocol rationale behind every rule and
//! the registries below.

use crate::engine::{matching, Diagnostic};
use crate::lexer::{Tok, TokKind};

/// Everything a rule needs about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
    /// Token stream.
    pub toks: &'a [Tok],
    /// Parallel mask: `true` = token is inside test-only code.
    pub test_mask: &'a [bool],
}

impl FileCtx<'_> {
    fn emit(&self, out: &mut Vec<Diagnostic>, line: u32, rule: &'static str, message: String) {
        out.push(Diagnostic {
            path: self.rel_path.to_string(),
            line,
            rule,
            message,
            fingerprint: String::new(),
        });
    }
}

// ---------------------------------------------------------------------------
// Registries (documented in docs/ANALYSIS.md — keep the two in sync).
// ---------------------------------------------------------------------------

/// Types that directly hold raw secret material. Deriving `Debug` on them
/// would print limbs; they must carry a hand-written redacting impl (or
/// wrap their fields in `ppgr_bigint::Secret`).
pub(crate) const SECRET_TYPES: &[&str] = &[
    "KeyPair",
    "SchnorrProver",
    "SenderState",
    "Secret",
    // Offline-precomputed material: a pooled Schnorr nonce, mask pair or
    // party stock is exactly as sensitive as the live value it stands in
    // for (recovering r from a transcript recovers the witness/plaintext;
    // a party stock holds its party's secret exponent outright).
    "SchnorrNonce",
    "MaskPair",
    "PartyStock",
];

/// Identifier names that, by workspace convention, bind secret values:
/// ElGamal secret exponents and shares, Schnorr witnesses and nonces, the
/// initiator's ρ/ρ_j masks, and shuffle permutations. Formatting them or
/// comparing them with `==`/`!=` is forbidden.
pub(crate) const SECRET_IDENTS: &[&str] = &[
    "secret",
    "secret_key",
    "secret_share",
    "witness",
    "nonce",
    "sk",
    "rho",
    "rho_j",
    "key_share",
    "private_key",
    "shuffle_perm",
];

/// Wall-clock identifiers that break the transcript determinism the pooled
/// runtime's bit-identical guarantee rests on. Sanctioned timing modules
/// are exempt — measuring real time is their job.
const AMBIENT_CLOCK: &[&str] = &["SystemTime", "Instant"];

/// Ambient entropy identifiers. Unlike the clock these have **no**
/// sanctioned modules: every random draw in the workspace — including the
/// precompute pool's background refill of offline stocks — must flow from
/// a seeded, injected `Rng`, or a warm session's transcript could never be
/// bit-identical to its cold fallback.
const AMBIENT_ENTROPY: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

/// Modules sanctioned to read the wall clock: the benchmark harness
/// (measures real time by definition), the shared timing ledger, and this
/// analyzer. Ambient *entropy* is not excused here — see
/// [`AMBIENT_ENTROPY`].
const DETERMINISM_SANCTIONED: &[&str] = &[
    "crates/bench/",
    "crates/tidy/",
    "crates/core/src/timing.rs",
    // Deadlines are liveness-only: wall-clock reads here never feed
    // protocol state or randomness (see docs/FAULTS.md).
    "crates/net/src/deadline.rs",
];

/// Crates whose non-test code forms the protocol surface and must be
/// panic-free (typed errors instead).
const PANIC_FREE_CRATES: &[&str] = &[
    "crates/group/",
    "crates/elgamal/",
    "crates/zkp/",
    "crates/dotprod/",
    "crates/smc/",
    "crates/anon/",
    "crates/core/",
    "crates/net/",
];

/// Misbehaviour hooks: the identifiers through which a test scripts an
/// active adversary (byte tampering, per-lane equivocation, forged abort
/// frames, corrupted proofs). They exist *only* so the byzantine matrix
/// can exercise the blame machinery; reachable from ordinary protocol
/// code they would be a built-in backdoor.
pub(crate) const FAULT_HOOKS: &[&str] = &[
    "Tamper",
    "TamperBytes",
    "tamper",
    "equivocate",
    "forge",
    "corrupt_key_proof",
    "bump_response",
    "bump_nonce_commitment",
    "swap_responses",
    "forged_response_bytes",
];

/// Files sanctioned to define (or re-export) the fault-injection surface.
/// The crate roots appear because they declare/re-export the injector
/// module — they may name the hooks, not call them into the protocol.
const FAULT_SURFACE_SANCTIONED: &[&str] = &[
    "crates/net/src/fault.rs",
    "crates/net/src/lib.rs",
    "crates/zkp/src/tamper.rs",
    "crates/zkp/src/lib.rs",
    "crates/core/src/offline.rs",
];

/// Formatting macros through which a secret could reach a log line, a
/// panic message, or a debugger transcript.
pub(crate) const FMT_MACROS: &[&str] = &[
    "format",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "dbg",
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "trace",
    "debug",
    "info",
    "warn",
    "error",
];

// ---------------------------------------------------------------------------
// Rule: headers
// ---------------------------------------------------------------------------

/// Every crate root keeps `#![forbid(unsafe_code)]` and
/// `#![deny(unused_must_use)]`: no unsafe in a from-scratch crypto
/// workspace, and no silently dropped `Result` on the protocol surface.
/// Binary crate roots (`src/main.rs`, `src/bin/*.rs`) are crate roots
/// too — a bench or CLI binary without the headers would quietly reopen
/// both holes for everything it links.
pub fn check_headers(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let is_bin_root = ctx.rel_path.ends_with("src/main.rs")
        || (ctx.rel_path.ends_with(".rs") && ctx.rel_path.contains("src/bin/"));
    if !ctx.rel_path.ends_with("src/lib.rs") && !is_bin_root {
        return;
    }
    for (attr, ident, header) in [
        ("forbid", "unsafe_code", "#![forbid(unsafe_code)]"),
        ("deny", "unused_must_use", "#![deny(unused_must_use)]"),
    ] {
        if !has_inner_lint(ctx.toks, attr, ident) {
            ctx.emit(
                out,
                1,
                "headers",
                format!("crate root is missing the `{header}` lint header"),
            );
        }
    }
}

/// True if the stream contains `#![<attr>(… <ident> …)]`.
fn has_inner_lint(toks: &[Tok], attr: &str, ident: &str) -> bool {
    for i in 0..toks.len() {
        if toks[i].is_punct("#")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("["))
            && toks.get(i + 3).is_some_and(|t| t.is_ident(attr))
        {
            if let Some(end) = matching(toks, i + 2, "[", "]") {
                if toks[i + 4..end].iter().any(|t| t.is_ident(ident)) {
                    return true;
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: determinism
// ---------------------------------------------------------------------------

/// All protocol randomness must flow from an injected `Rng` — everywhere,
/// sanctioned modules included; wall-clock reads are confined to
/// sanctioned timing modules.
pub fn check_determinism(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let clock_sanctioned = DETERMINISM_SANCTIONED
        .iter()
        .any(|p| ctx.rel_path.starts_with(p) || ctx.rel_path.ends_with(p));
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if AMBIENT_ENTROPY.contains(&t.text.as_str()) {
            ctx.emit(
                out,
                t.line,
                "determinism",
                format!(
                    "`{}` is ambient entropy: every draw — offline precompute refills \
                     included — must come from a seeded, injected Rng, or warm and cold \
                     transcripts diverge",
                    t.text
                ),
            );
        } else if !clock_sanctioned && AMBIENT_CLOCK.contains(&t.text.as_str()) {
            ctx.emit(
                out,
                t.line,
                "determinism",
                format!(
                    "`{}` breaks transcript determinism: wall-clock reads belong in \
                     sanctioned timing modules",
                    t.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: panic
// ---------------------------------------------------------------------------

/// Non-test protocol code must not contain `unwrap()`, `expect(`,
/// `panic!`, `unreachable!`, `todo!`, or `unimplemented!`.
pub fn check_panic(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !PANIC_FREE_CRATES
        .iter()
        .any(|p| ctx.rel_path.starts_with(p))
    {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let next = ctx.toks.get(i + 1);
        let method_panic =
            matches!(t.text.as_str(), "unwrap" | "expect") && next.is_some_and(|n| n.is_punct("("));
        let macro_panic = matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && next.is_some_and(|n| n.is_punct("!"));
        if method_panic || macro_panic {
            ctx.emit(
                out,
                t.line,
                "panic",
                format!(
                    "`{}` on the protocol surface: return a typed error \
                     (ProtocolError/GroupError/…) or waive a provably-unreachable case",
                    t.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: fault-surface
// ---------------------------------------------------------------------------

/// Misbehaviour hooks stay pinned to the fault-injection surface: non-test
/// code outside the sanctioned injector files must not touch them. Tests
/// (the byzantine matrix, pool fixtures) are exempt like everywhere else.
pub fn check_fault_surface(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if FAULT_SURFACE_SANCTIONED.contains(&ctx.rel_path) {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if FAULT_HOOKS.contains(&t.text.as_str()) {
            ctx.emit(
                out,
                t.line,
                "fault-surface",
                format!(
                    "`{}` is a scripted-misbehaviour hook: it belongs to the \
                     fault-injection surface (crates/net/src/fault.rs, \
                     crates/zkp/src/tamper.rs) and test code only — reachable \
                     from the protocol path it is a backdoor",
                    t.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: secret-hygiene
// ---------------------------------------------------------------------------

/// Secrets must not reach `Debug`/`Display` output or variable-time
/// comparisons.
pub fn check_secret_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    check_derive_debug(ctx, out);
    check_format_leaks(ctx, out);
    check_variable_time_eq(ctx, out);
}

/// Forbids `#[derive(… Debug …)]` on registry types: a derived impl prints
/// every limb of the secret.
fn check_derive_debug(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.test_mask[i]
            || !toks[i].is_ident("derive")
            || i < 2
            || !toks[i - 1].is_punct("[")
            || !toks[i - 2].is_punct("#")
            || !toks.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            continue;
        }
        let Some(close) = matching(toks, i + 1, "(", ")") else {
            continue;
        };
        if !toks[i + 2..close].iter().any(|t| t.is_ident("Debug")) {
            continue;
        }
        // Find the struct/enum this derive decorates.
        let Some(name) = decorated_type_name(toks, close + 1) else {
            continue;
        };
        if SECRET_TYPES.contains(&name.as_str()) {
            ctx.emit(
                out,
                toks[i].line,
                "secret-hygiene",
                format!(
                    "`{name}` holds secret material: derive(Debug) would print its limbs — \
                     write a redacting impl (or wrap fields in `Secret<T>`)"
                ),
            );
        }
    }
}

/// The `struct`/`enum` name following an attribute ending at `start - 1`,
/// skipping further attributes and visibility modifiers.
fn decorated_type_name(toks: &[Tok], start: usize) -> Option<String> {
    let mut i = start;
    // `]` that closes the derive attribute.
    if toks.get(i).is_some_and(|t| t.is_punct("]")) {
        i += 1;
    }
    loop {
        let t = toks.get(i)?;
        if t.is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            i = matching(toks, i + 1, "[", "]")? + 1;
            continue;
        }
        if t.is_ident("pub") {
            i += 1;
            if toks.get(i).is_some_and(|t| t.is_punct("(")) {
                i = matching(toks, i, "(", ")")? + 1;
            }
            continue;
        }
        if t.is_ident("struct") || t.is_ident("enum") || t.is_ident("union") {
            let name = toks.get(i + 1)?;
            if name.kind == TokKind::Ident {
                return Some(name.text.clone());
            }
            return None;
        }
        return None;
    }
}

/// Flags secret identifiers appearing inside formatting macros, either as
/// arguments or as `{name}` / `{name:?}` inline captures in the format
/// string.
fn check_format_leaks(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.test_mask[i]
            || !(toks[i].kind == TokKind::Ident && FMT_MACROS.contains(&toks[i].text.as_str()))
            || !toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
        {
            continue;
        }
        let Some(open) = toks.get(i + 2) else {
            continue;
        };
        let (open_t, close_t) = match open.text.as_str() {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => continue,
        };
        let Some(close) = matching(toks, i + 2, open_t, close_t) else {
            continue;
        };
        for t in &toks[i + 3..close] {
            match t.kind {
                TokKind::Ident if SECRET_IDENTS.contains(&t.text.as_str()) => {
                    ctx.emit(
                        out,
                        t.line,
                        "secret-hygiene",
                        format!(
                            "secret `{}` reaches a `{}!` formatting macro — secrets must never \
                             be formatted or logged",
                            t.text, toks[i].text
                        ),
                    );
                }
                TokKind::Str => {
                    for s in SECRET_IDENTS {
                        if t.text.contains(&format!("{{{s}}}"))
                            || t.text.contains(&format!("{{{s}:"))
                        {
                            ctx.emit(
                                out,
                                t.line,
                                "secret-hygiene",
                                format!(
                                    "secret `{s}` captured in a `{}!` format string — secrets \
                                     must never be formatted or logged",
                                    toks[i].text
                                ),
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Flags `==` / `!=` whose operand chain touches a secret identifier:
/// short-circuiting equality is variable-time, which leaks where the first
/// differing limb is. Use `ct_eq` from `ppgr-bigint`.
fn check_variable_time_eq(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.test_mask[i] || !(toks[i].is_punct("==") || toks[i].is_punct("!=")) {
            continue;
        }
        let mut offender: Option<&str> = None;
        // Walk outward over tokens that can belong to an operand
        // expression; stop at anything else (statement/block boundaries).
        let chain_tok = |t: &Tok| -> bool {
            matches!(t.kind, TokKind::Ident | TokKind::Num)
                || matches!(
                    t.text.as_str(),
                    "." | "(" | ")" | "[" | "]" | "&" | "*" | ":" | "::" | "?"
                )
        };
        for j in (i.saturating_sub(8)..i).rev() {
            if !chain_tok(&toks[j]) {
                break;
            }
            if toks[j].kind == TokKind::Ident && SECRET_IDENTS.contains(&toks[j].text.as_str()) {
                offender = Some(toks[j].text.as_str());
            }
        }
        if offender.is_none() {
            for t in toks.iter().skip(i + 1).take(8) {
                if !chain_tok(t) {
                    break;
                }
                if t.kind == TokKind::Ident && SECRET_IDENTS.contains(&t.text.as_str()) {
                    offender = Some(t.text.as_str());
                }
            }
        }
        if let Some(name) = offender {
            ctx.emit(
                out,
                toks[i].line,
                "secret-hygiene",
                format!(
                    "variable-time `{}` on secret `{name}` — short-circuit equality leaks the \
                     first differing limb; use `ct_eq`",
                    toks[i].text
                ),
            );
        }
    }
}
