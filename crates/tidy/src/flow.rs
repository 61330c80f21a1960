//! Intraprocedural secret-taint dataflow over the [`parser`](crate::parser)
//! AST: the engine behind the `secret-branch`, `secret-index`, and
//! `secret-escape` rules.
//!
//! # Model
//!
//! Taint is a per-function map from binding names to the *origin* secret
//! they derive from. It is seeded from three places:
//!
//! * parameters and `let` bindings whose **name** is in the
//!   `SECRET_IDENTS` registry, or whose **type annotation** mentions a
//!   type from `SECRET_TYPES` (incl. `Secret<T>` itself);
//! * field accesses whose field name is in `SECRET_IDENTS`
//!   (`self.nonce`, `pair.sk`);
//! * the `Secret<T>` unwrap points `.expose()` / `.expose_mut()`.
//!
//! Taint propagates through arithmetic, references, `?`, casts, tuples,
//! closures (iterator-style closures inherit the receiver's taint into
//! their parameters; a `map` closure's result replaces the receiver's
//! taint), indexing, and secret-dependent `if`/`match`
//! selection results. It **ends** at a declassification point: a registry
//! of constructions whose output is public by cryptographic argument
//! (exponentiations under the DL assumption, hashes, ciphertext/proof
//! constructors, constant-time comparison verdicts) or a re-wrap into
//! `Secret`. Struct literals are an aggregation boundary: building a
//! value of a secret-bearing type is governed by the type-level rules
//! (`derive(Debug)` ban, `Secret` fields), not by taint — the analysis is
//! intraprocedural and stops there. A `Self::…` call inside a function
//! returning `Self` is the same boundary, so a constructor's result gets
//! the verdict of the literal it could be rewritten as.
//!
//! # The three rule families
//!
//! * **secret-branch** — a secret-tainted value decides control flow:
//!   `if`/`while` condition, `match` scrutinee or arm guard, `for`
//!   iterable, `let … else`. Execution time then depends on secret bits
//!   — the class of leak the protocol math does not model.
//! * **secret-index** — a secret-tainted value computes an array/slice
//!   index: the accessed address leaks through the cache (the classic
//!   attack against comb/wNAF table lookups).
//! * **secret-escape** — a tainted value leaves the taint discipline
//!   without declassification: duplicated by a clone-family call (the
//!   copy is never wiped), returned from a function whose declared
//!   return type is not secret-bearing, or captured by a formatting
//!   macro (the dataflow extension of the lexical format ban).
//!
//! Intraprocedural means: calls are *not* followed. A called function
//! re-seeds its own taint from its parameter names/types, so the
//! workspace convention of naming secret parameters by their protocol
//! role (already enforced lexically) is what carries taint across
//! function boundaries.

use crate::engine::Diagnostic;
use crate::parser::{Block, Expr, FnItem, Stmt};
use crate::rules::{FMT_MACROS, SECRET_IDENTS, SECRET_TYPES};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Registries (documented in docs/ANALYSIS.md — keep the two in sync).
// ---------------------------------------------------------------------------

/// Calls whose result is public even when fed secrets — the points where
/// taint legitimately ends, each with a cryptographic argument:
///
/// * the exponentiation family (`exp*`, `multi_exp`, and
///   `into_filled_halves`, which yields a mask row's `y^r` and `g^r`):
///   one-way under the DL
///   assumption — `g^x` reveals nothing efficiently computable about `x`;
/// * hashes/KDFs (`sha256`, `hmac_sha256`, `hkdf_*`): one-wayness in the
///   random-oracle model;
/// * ciphertext constructors (`encrypt*`, `rerandomize*`,
///   `randomize_plaintext`): ElGamal semantic security;
/// * proof verdicts (`verify*`) and constant-time equality (`ct_eq`,
///   `ct_eq_limbs`): the boolean verdict is the protocol's intended
///   public output — the `ct_` property protects the *path* to it, not
///   the bit itself. Note `ct_select*` is **not** here: a selected value
///   is as secret as its inputs;
/// * public-part accessors on secret-bearing values (`commitment`,
///   `public_key`) and encodings of public group elements (`encode`,
///   `try_encode`);
/// * structural size/shape queries (`len`, `is_empty`, `bit_len`,
///   `bits`, `is_zero`, `is_none`, `is_some`): conceded channels — limb
///   vectors are normalized, so operand length already correlates with
///   magnitude (the honesty note in `crates/bigint/src/ct.rs`),
///   protocol scalars are publicly validated nonzero, and the
///   presence/absence of pooled precomputed material is scheduler
///   state, not secret data;
/// * `wipe` (destroys the value; result is `()`).
const DECLASSIFIERS: &[&str] = &[
    // exponentiation family (one-way under DL)
    "exp",
    "try_exp",
    "exp_gen",
    "exp_batch",
    "exp_gen_batch",
    "multi_exp",
    "try_multi_exp",
    "exp_hop_prepared_batch",
    "exp_prepared",
    "exp_prepared_batch",
    // a mask row's `(y^r, g^r)` halves: both exponentiations of each `r`
    "into_filled_halves",
    // hashes / KDFs
    "sha256",
    "hmac_sha256",
    "hkdf_extract",
    "hkdf_expand",
    "hkdf_sha256",
    // ciphertext constructors
    "encrypt",
    "encrypt_bits",
    "encrypt_bits_with_precomputed",
    "rerandomize",
    "randomize_plaintext",
    // public verdicts and constant-time comparison
    "verify",
    "verify_batch",
    "is_identity",
    "decrypts_to_zero",
    "ct_eq",
    "ct_eq_limbs",
    // public-part accessors / encodings
    "commitment",
    "public_key",
    "encode",
    "try_encode",
    // conceded structural queries
    "len",
    "is_empty",
    "bit_len",
    "bits",
    "is_zero",
    "is_none",
    "is_some",
    // destructuring that keeps the secret component wrapped: `into_parts`
    // yields `Secret<…>`-wrapped secrets plus public halves (`g^r`,
    // commitments), so the bindings are safe until their `.expose()`,
    // which re-taints
    "into_parts",
    // `DebugStruct::finish` — the `fmt::Result` verdict carries no
    // payload; what was fed to the builder is the secret-hygiene rule's
    // jurisdiction (redacting `Debug` impls hand over still-wrapped
    // `Secret` fields)
    "finish",
    // destruction
    "wipe",
];

/// Type path segments whose `new`/`from` constructors move a value *back
/// under* secret protection (`Secret::new`, `Secret::from`): escape checks
/// are suppressed inside their arguments and the result is clean (future
/// access must go through `.expose()` again).
const REWRAP_TYPES: &[&str] = &["Secret"];

/// Clone-family methods: each duplicates secret material into a copy no
/// `Secret` wrapper will ever wipe.
const CLONE_LIKE: &[&str] = &["clone", "to_vec", "to_owned", "to_string"];

/// `Secret<T>` unwrap points — calling one makes the result hot whatever
/// the receiver is named.
const EXPOSERS: &[&str] = &["expose", "expose_mut"];

/// True if a flattened type string mentions a secret-bearing type.
fn type_is_secret(ty: &str) -> bool {
    ty.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|seg| SECRET_TYPES.contains(&seg))
}

/// True if a binding/parameter name is secret by workspace convention.
fn name_is_secret(name: &str) -> bool {
    SECRET_IDENTS.contains(&name)
}

/// Taint: `Some(origin)` names the secret a value derives from.
type Taint = Option<String>;

/// Binding-name → origin-secret map for one function.
type Env = HashMap<String, String>;

/// The per-function walker.
struct Flow<'a> {
    rel_path: &'a str,
    fn_name: &'a str,
    /// Declared return type (for escape messages).
    ret: Option<&'a str>,
    /// Declared return type mentions a secret-bearing wrapper.
    ret_secret: bool,
    /// The fn's *name* declares it hands out secret material
    /// (`secret_key`, `expose_*`): returning taint from it is the
    /// documented, greppable escape hatch, so escape-on-return is off.
    sanctioned_accessor: bool,
    /// Suppression depth for escape findings (inside declassifier or
    /// rewrapper arguments the value is on its way to safety).
    suppress_escape: u32,
    out: &'a mut Vec<Diagnostic>,
}

/// Runs the taint engine over one function and appends any
/// `secret-branch` / `secret-index` / `secret-escape` findings.
pub fn check_fn(rel_path: &str, item: &FnItem, out: &mut Vec<Diagnostic>) {
    let ret_secret = item.ret.as_deref().is_some_and(type_is_secret);
    let lower = item.name.to_lowercase();
    let sanctioned_accessor =
        name_is_secret(&item.name) || lower.contains("secret") || lower.contains("expose");
    let mut flow = Flow {
        rel_path,
        fn_name: &item.name,
        ret: item.ret.as_deref(),
        ret_secret,
        sanctioned_accessor,
        suppress_escape: 0,
        out,
    };
    let mut env = Env::new();
    for p in &item.params {
        let ty_secret = type_is_secret(&p.ty);
        for n in &p.names {
            if ty_secret || name_is_secret(n) {
                env.insert(n.clone(), n.clone());
            }
        }
    }
    let tail = flow.walk_block(&item.body, &mut env);
    // The body's tail expression is the return value.
    if let Some(origin) = tail {
        if item.ret.is_some() && !flow.ret_secret && !flow.sanctioned_accessor {
            let line = item
                .body
                .stmts
                .iter()
                .rev()
                .find_map(|s| match s {
                    Stmt::Expr { expr, semi: false } => Some(expr_line(expr)),
                    _ => None,
                })
                .unwrap_or(item.line);
            flow.escape_return(line, &origin);
        }
    }
}

/// Representative source line of an expression (for diagnostics).
fn expr_line(e: &Expr) -> u32 {
    match e {
        Expr::Ident(_, l)
        | Expr::Path(_, l)
        | Expr::Lit(l)
        | Expr::Call { line: l, .. }
        | Expr::Method { line: l, .. }
        | Expr::Field { line: l, .. }
        | Expr::Index { line: l, .. }
        | Expr::Binary { line: l, .. }
        | Expr::Assign { line: l, .. }
        | Expr::If { line: l, .. }
        | Expr::Match { line: l, .. }
        | Expr::While { line: l, .. }
        | Expr::For { line: l, .. }
        | Expr::Return { line: l, .. }
        | Expr::Closure { line: l, .. }
        | Expr::StructLit { line: l, .. }
        | Expr::Macro { line: l, .. }
        | Expr::Unknown(l) => *l,
        Expr::Unary { expr } | Expr::Try { expr } | Expr::Cast { expr } => expr_line(expr),
        Expr::Break { value: Some(v) } => expr_line(v),
        Expr::Break { value: None } => 0,
        Expr::Range { lo: Some(l), .. } => expr_line(l),
        Expr::Range {
            lo: None,
            hi: Some(h),
        } => expr_line(h),
        Expr::Range { lo: None, hi: None } => 0,
        Expr::Loop { body } | Expr::BlockExpr(body) => body.stmts.first().map_or(0, |s| match s {
            Stmt::Let { line, .. } => *line,
            Stmt::Expr { expr, .. } => expr_line(expr),
        }),
        Expr::Tuple { items } => items.first().map_or(0, expr_line),
    }
}

/// Short display name for a receiver expression (for messages).
fn expr_name(e: &Expr) -> String {
    match e {
        Expr::Ident(n, _) => n.clone(),
        Expr::Path(p, _) => p.clone(),
        Expr::Field { name, .. } => name.clone(),
        Expr::Unary { expr } | Expr::Try { expr } | Expr::Cast { expr } => expr_name(expr),
        Expr::Method { recv, .. } => expr_name(recv),
        Expr::Index { base, .. } => expr_name(base),
        _ => "value".to_string(),
    }
}

/// Last path segment of a call's callee, if the callee is a name.
fn callee_name(e: &Expr) -> Option<&str> {
    match e {
        Expr::Ident(n, _) => Some(n),
        Expr::Path(p, _) => p.rsplit("::").next(),
        _ => None,
    }
}

/// True if the callee path rewraps its argument into secret protection
/// (`Secret::new`, `Secret::from`).
fn callee_rewraps(e: &Expr) -> bool {
    match e {
        Expr::Path(p, _) => {
            let mut segs = p.rsplit("::");
            let last = segs.next().unwrap_or("");
            let qualifier = segs.next().unwrap_or("");
            REWRAP_TYPES.contains(&qualifier) && matches!(last, "new" | "from")
        }
        _ => false,
    }
}

impl Flow<'_> {
    fn emit(&mut self, line: u32, rule: &'static str, message: String) {
        self.out.push(Diagnostic {
            path: self.rel_path.to_string(),
            line,
            rule,
            message,
            fingerprint: String::new(),
        });
    }

    fn branch(&mut self, line: u32, construct: &str, origin: &str) {
        let fn_name = self.fn_name;
        self.emit(
            line,
            "secret-branch",
            format!(
                "`{construct}` in `{fn_name}` depends on secret `{origin}`: control flow on \
                 secret data is variable-time — rewrite branch-free (ct_select/masking) or \
                 waive with the argument that the value is public at this point"
            ),
        );
    }

    /// True if `callee` is a `Self::…` path called inside a function
    /// returning `Self`: a constructor of the value the function returns.
    fn builds_self(&self, callee: &Expr) -> bool {
        self.ret == Some("Self") && matches!(callee, Expr::Path(p, _) if p.starts_with("Self::"))
    }

    fn escape_return(&mut self, line: u32, origin: &str) {
        let fn_name = self.fn_name;
        let ret = self.ret.unwrap_or("_");
        self.emit(
            line,
            "secret-escape",
            format!(
                "secret `{origin}` leaves `{fn_name}` through return type `{ret}`, which is \
                 not a secret-bearing wrapper — wrap it in `Secret<T>`, declassify it \
                 (hash/exp/encrypt), or waive with the masking argument"
            ),
        );
    }

    fn walk_block(&mut self, b: &Block, env: &mut Env) -> Taint {
        let mut tail = None;
        for s in &b.stmts {
            tail = None;
            match s {
                Stmt::Let {
                    names,
                    ty,
                    init,
                    else_block,
                    line,
                } => {
                    let init_taint = init.as_ref().and_then(|e| self.eval(e, env));
                    // `let Some(x) = tainted else { … }`: whether the
                    // pattern matches — i.e. whether control diverges —
                    // is a function of secret data.
                    if else_block.is_some() {
                        if let Some(origin) = &init_taint {
                            self.branch(*line, "let-else", origin);
                        }
                        if let Some(eb) = else_block {
                            self.walk_block(eb, env);
                        }
                    }
                    let ty_secret = ty.as_deref().is_some_and(type_is_secret);
                    for n in names {
                        if ty_secret || name_is_secret(n) {
                            env.insert(n.clone(), n.clone());
                        } else if let Some(origin) = &init_taint {
                            env.insert(n.clone(), origin.clone());
                        } else {
                            env.remove(n); // rebind to a clean value
                        }
                    }
                }
                Stmt::Expr { expr, semi } => {
                    let t = self.eval(expr, env);
                    if !*semi {
                        tail = t;
                    }
                }
            }
        }
        tail
    }

    /// Evaluates an expression: emits findings for the constructs inside
    /// it and returns its taint.
    fn eval(&mut self, e: &Expr, env: &mut Env) -> Taint {
        match e {
            Expr::Lit(_) | Expr::Unknown(_) => None,
            Expr::Ident(n, _) => {
                if let Some(origin) = env.get(n) {
                    Some(origin.clone())
                } else if name_is_secret(n) {
                    Some(n.clone())
                } else {
                    None
                }
            }
            // Paths name consts/variants/functions — public namespace.
            Expr::Path(_, _) => None,
            Expr::Field { base, name, .. } => {
                let base_taint = self.eval(base, env);
                if name_is_secret(name) {
                    Some(name.clone())
                } else {
                    base_taint
                }
            }
            Expr::Unary { expr } | Expr::Try { expr } | Expr::Cast { expr } => self.eval(expr, env),
            Expr::Binary { lhs, rhs, .. } => {
                let l = self.eval(lhs, env);
                let r = self.eval(rhs, env);
                l.or(r)
            }
            Expr::Range { lo, hi } => {
                let l = lo.as_ref().and_then(|e| self.eval(e, env));
                let r = hi.as_ref().and_then(|e| self.eval(e, env));
                l.or(r)
            }
            Expr::Tuple { items } => {
                let mut taint = None;
                for it in items {
                    let t = self.eval(it, env);
                    taint = taint.or(t);
                }
                taint
            }
            Expr::StructLit { fields, .. } => {
                // Aggregation boundary: field values are walked (for
                // nested findings) but do not taint the aggregate — the
                // type-level rules govern secret-bearing structs.
                for (_, v) in fields {
                    self.eval(v, env);
                }
                None
            }
            Expr::Index { base, index, line } => {
                let base_taint = self.eval(base, env);
                let index_taint = self.eval(index, env);
                if let Some(origin) = &index_taint {
                    let fn_name = self.fn_name;
                    self.emit(
                        *line,
                        "secret-index",
                        format!(
                            "index in `{fn_name}` is derived from secret `{origin}`: the \
                             accessed address leaks through the cache (the classic attack \
                             on comb/wNAF tables) — use a constant-time scan/gather or \
                             waive with why the index is public"
                        ),
                    );
                }
                base_taint.or(index_taint)
            }
            Expr::Call { callee, args, .. } => {
                if self.builds_self(callee) {
                    // The same aggregation boundary as a `Self { … }`
                    // literal, so `let m = Self::new(.., stock); m` and
                    // `Self { .., ..Self::new(.., stock) }` get one verdict.
                    for a in args {
                        self.eval(a, env);
                    }
                    return None;
                }
                if callee_rewraps(callee) {
                    self.suppress_escape += 1;
                    for a in args {
                        self.eval(a, env);
                    }
                    self.suppress_escape -= 1;
                    return None;
                }
                let declassifies = callee_name(callee).is_some_and(|n| DECLASSIFIERS.contains(&n));
                if declassifies {
                    self.suppress_escape += 1;
                }
                let mut taint = None;
                for a in args {
                    let t = self.eval(a, env);
                    taint = taint.or(t);
                }
                if declassifies {
                    self.suppress_escape -= 1;
                    return None;
                }
                taint
            }
            Expr::Method {
                recv,
                name,
                args,
                line,
            } => {
                let recv_taint = self.eval(recv, env);
                if EXPOSERS.contains(&name.as_str()) {
                    // The unwrap point: the result is secret material
                    // whatever the receiver is called.
                    let origin = recv_taint.unwrap_or_else(|| expr_name(recv));
                    return Some(origin);
                }
                let declassifies = DECLASSIFIERS.contains(&name.as_str());
                if declassifies {
                    self.suppress_escape += 1;
                }
                // `map` with a closure yields the closure's results, not the
                // receiver's elements: its output is as secret as the
                // closure body makes it (a declassifying body yields public
                // elements; the element count is a conceded `len`).
                let maps = name == "map" && matches!(args.as_slice(), [Expr::Closure { .. }]);
                let mut taint = if maps { None } else { recv_taint.clone() };
                for a in args {
                    let t = match a {
                        // Iterator-style closure: elements of a secret
                        // collection are secret.
                        Expr::Closure { params, body, .. } => {
                            let mut inner = env.clone();
                            if let Some(origin) = &recv_taint {
                                for p in params {
                                    inner.insert(p.clone(), origin.clone());
                                }
                            } else {
                                for p in params {
                                    inner.remove(p);
                                }
                            }
                            self.eval(body, &mut inner)
                        }
                        _ => self.eval(a, env),
                    };
                    taint = taint.or(t);
                }
                if declassifies {
                    self.suppress_escape -= 1;
                    return None;
                }
                if CLONE_LIKE.contains(&name.as_str()) && self.suppress_escape == 0 {
                    if let Some(origin) = &recv_taint {
                        let fn_name = self.fn_name;
                        self.emit(
                            *line,
                            "secret-escape",
                            format!(
                                "`{name}()` in `{fn_name}` duplicates secret `{origin}` \
                                 outside any `Secret` wrapper — the copy is never wiped; \
                                 move it back under `Secret::new`, declassify it, or waive \
                                 with its lifecycle argument"
                            ),
                        );
                    }
                }
                taint
            }
            Expr::Closure { params, body, .. } => {
                // A bare closure: parameters are unbound (no receiver to
                // inherit from); the body still sees the captures.
                let mut inner = env.clone();
                for p in params {
                    inner.remove(p);
                }
                self.eval(body, &mut inner)
            }
            Expr::Assign {
                target,
                value,
                compound,
                ..
            } => {
                let value_taint = self.eval(value, env);
                match target.as_ref() {
                    Expr::Ident(n, _) => {
                        let existing = env.get(n).cloned();
                        let new_taint = if *compound {
                            value_taint.or(existing)
                        } else {
                            value_taint
                        };
                        match new_taint {
                            Some(origin) => {
                                env.insert(n.clone(), origin);
                            }
                            None => {
                                if !name_is_secret(n) {
                                    env.remove(n);
                                }
                            }
                        }
                    }
                    other => {
                        // Assignment through a place expression — walk it
                        // so tainted indices still fire.
                        self.eval(other, env);
                    }
                }
                None
            }
            Expr::If {
                cond,
                let_bound,
                then,
                els,
                line,
            } => {
                let cond_taint = self.eval(cond, env);
                if let Some(origin) = &cond_taint {
                    let construct = if let_bound.is_empty() { "if" } else { "if let" };
                    self.branch(*line, construct, origin);
                }
                let mut then_env = env.clone();
                if let Some(origin) = &cond_taint {
                    for n in let_bound {
                        then_env.insert(n.clone(), origin.clone());
                    }
                }
                let then_taint = self.walk_block(then, &mut then_env);
                let els_taint = els.as_ref().and_then(|e| self.eval(e, env));
                // A value selected under a secret condition is secret.
                cond_taint.or(then_taint).or(els_taint)
            }
            Expr::While {
                cond,
                let_bound,
                body,
                line,
            } => {
                let cond_taint = self.eval(cond, env);
                if let Some(origin) = &cond_taint {
                    let construct = if let_bound.is_empty() {
                        "while"
                    } else {
                        "while let"
                    };
                    self.branch(*line, construct, origin);
                }
                let mut body_env = env.clone();
                if let Some(origin) = &cond_taint {
                    for n in let_bound {
                        body_env.insert(n.clone(), origin.clone());
                    }
                }
                self.walk_block(body, &mut body_env);
                None
            }
            Expr::For {
                bound,
                iter,
                body,
                line,
            } => {
                let iter_taint = self.eval(iter, env);
                if let Some(origin) = &iter_taint {
                    self.branch(*line, "for", origin);
                }
                let mut body_env = env.clone();
                if let Some(origin) = &iter_taint {
                    for n in bound {
                        body_env.insert(n.clone(), origin.clone());
                    }
                }
                self.walk_block(body, &mut body_env);
                None
            }
            Expr::Loop { body } => {
                let mut body_env = env.clone();
                self.walk_block(body, &mut body_env);
                None
            }
            Expr::Match {
                scrutinee,
                arms,
                line,
            } => {
                let scrut_taint = self.eval(scrutinee, env);
                if let Some(origin) = &scrut_taint {
                    self.branch(*line, "match", origin);
                }
                let mut taint = scrut_taint.clone();
                for arm in arms {
                    let mut arm_env = env.clone();
                    if let Some(origin) = &scrut_taint {
                        for n in &arm.bound {
                            arm_env.insert(n.clone(), origin.clone());
                        }
                    }
                    if let Some(g) = &arm.guard {
                        if let Some(origin) = self.eval(g, &mut arm_env) {
                            self.branch(arm.line, "match guard", &origin);
                        }
                    }
                    let t = self.eval(&arm.body, &mut arm_env);
                    taint = taint.or(t);
                }
                taint
            }
            Expr::BlockExpr(b) => {
                let mut inner = env.clone();
                self.walk_block(b, &mut inner)
            }
            Expr::Return { value, line } => {
                let t = value.as_ref().and_then(|v| self.eval(v, env));
                if let Some(origin) = t {
                    if !self.ret_secret && !self.sanctioned_accessor && self.suppress_escape == 0 {
                        self.escape_return(*line, &origin);
                    }
                }
                None
            }
            Expr::Break { value } => {
                if let Some(v) = value {
                    self.eval(v, env);
                }
                None
            }
            Expr::Macro { name, idents, line } => {
                let mut taint = None;
                for (id, _) in idents {
                    if let Some(origin) = env.get(id).cloned() {
                        // The lexical secret-hygiene rule already flags
                        // registry names inside fmt macros; the dataflow
                        // rule adds the *derived* bindings it cannot see.
                        if FMT_MACROS.contains(&name.as_str())
                            && !name_is_secret(id)
                            && self.suppress_escape == 0
                        {
                            let fn_name = self.fn_name;
                            self.emit(
                                *line,
                                "secret-escape",
                                format!(
                                    "`{name}!` in `{fn_name}` captures `{id}`, which is \
                                     tainted by secret `{origin}` — formatting a \
                                     secret-derived value leaks it; drop it from the \
                                     message or waive with the declassification argument"
                                ),
                            );
                        }
                        taint = taint.or(Some(origin));
                    }
                }
                taint
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run(src: &str) -> Vec<(u32, &'static str)> {
        let toks = lex(src);
        let fns = parse_file(&toks);
        let mut out = Vec::new();
        for f in &fns {
            check_fn("crates/core/src/x.rs", f, &mut out);
        }
        out.iter().map(|d| (d.line, d.rule)).collect()
    }

    #[test]
    fn two_step_flow_into_if_fires_branch() {
        // The motivating case: a secret flowing through two assignments
        // into an `if` — invisible to token-level rules.
        let d = run("fn f(sk: u64) {\n let a = sk + 1;\n let b = a * 2;\n if b > 0 { g(); }\n}");
        assert_eq!(d, vec![(4, "secret-branch")]);
    }

    #[test]
    fn declassified_flow_is_silent() {
        let d = run(
            "fn f(group: &Group, sk: &Scalar) {\n let y = group.exp_gen(sk);\n if y.is_small() { g(); }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn secret_index_fires() {
        let d = run("fn f(table: &[u8], sk: usize) -> u8 {\n let i = sk & 7;\n table[i]\n}");
        assert_eq!(d.first(), Some(&(3, "secret-index")));
    }

    #[test]
    fn expose_taints_result() {
        let d = run("fn f(s: &Secret<u64>) {\n let v = s.expose();\n if v > &0 { g(); }\n}");
        assert_eq!(d, vec![(3, "secret-branch")]);
    }

    #[test]
    fn clone_of_secret_fires_escape() {
        let d = run("fn f(witness: &Scalar) {\n let w = witness.clone();\n use_it(w);\n}");
        assert_eq!(d, vec![(2, "secret-escape")]);
    }

    #[test]
    fn clone_into_rewrap_is_silent() {
        let d = run("fn f(witness: &Scalar) -> Secret<Scalar> {\n Secret::new(witness.clone())\n}");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn tainted_return_fires_escape() {
        let d = run("fn f(sk: &Scalar) -> Scalar {\n sk.double()\n}");
        assert_eq!(d, vec![(2, "secret-escape")]);
    }

    #[test]
    fn self_constructor_is_an_aggregation_boundary() {
        // A `Self::` call bound then returned, and the same call as a
        // struct-update base: one verdict for both spellings.
        let d = run(
            "fn f(id: u64, stock: PartyStock) -> Self {\n let m = Self::new(id, stock);\n m\n}",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = run(
            "fn f(id: u64, stock: PartyStock) -> Self {\n Self { id, ..Self::new(id, stock) }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
        // Its arguments are still walked, as a literal's fields are.
        let d = run("fn f(sk: &Scalar) -> Self {\n Self::new(sk.clone())\n}");
        assert_eq!(d, vec![(2, "secret-escape")]);
        // Through any other return type a `Self::` call carries taint.
        let d = run("fn f(sk: &Scalar) -> Scalar {\n Self::double(sk)\n}");
        assert_eq!(d, vec![(2, "secret-escape")]);
    }

    #[test]
    fn secret_return_type_is_silent() {
        let d = run("fn f(sk: Scalar) -> Secret<Scalar> {\n Secret::new(sk)\n}");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn match_for_and_while_fire() {
        let d = run(
            "fn f(nonce: u64) {\n match nonce { 0 => a(), _ => b(), }\n \
             for i in 0..nonce { c(i); }\n while nonce > 0 { d(); }\n}",
        );
        assert_eq!(
            d,
            vec![
                (2, "secret-branch"),
                (3, "secret-branch"),
                (4, "secret-branch")
            ]
        );
    }

    #[test]
    fn closure_inherits_receiver_taint() {
        let d = run(
            "fn f(secrets: Vec<Secret<u64>>) {\n let v = secrets.iter().map(|s| if s.odd() { 1 } else { 0 });\n use_it(v);\n}",
        );
        assert_eq!(d, vec![(2, "secret-branch")]);
    }

    #[test]
    fn map_through_a_declassifier_is_silent() {
        // Each element is exponentiated, so the mapped collection is
        // public; mapping through anything else keeps the taint.
        let d = run(
            "fn f(g: &Group, secrets: Vec<Secret<u64>>) -> Vec<u64> {\n secrets.iter().map(|s| g.exp_gen(s)).collect()\n}",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = run(
            "fn f(secrets: Vec<Secret<u64>>) -> Vec<u64> {\n secrets.iter().map(|s| s.double()).collect()\n}",
        );
        assert_eq!(d, vec![(2, "secret-escape")]);
    }

    #[test]
    fn fmt_macro_on_derived_taint_fires_escape() {
        let d = run(
            "fn f(sk: u64) {\n let digest_input = sk + 1;\n println!(\"{}\", digest_input);\n}",
        );
        assert_eq!(d, vec![(3, "secret-escape")]);
    }

    #[test]
    fn rebinding_to_clean_value_clears_taint() {
        let d = run("fn f(sk: u64) {\n let mut a = sk;\n a = 0;\n if a > 0 { g(); }\n}");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn compound_assign_keeps_taint() {
        let d = run("fn f(sk: u64, mut acc: u64) {\n acc += sk;\n if acc > 0 { g(); }\n}");
        assert_eq!(d, vec![(3, "secret-branch")]);
    }

    #[test]
    fn let_else_on_secret_fires() {
        let d = run("fn f(sk: Option<u64>) {\n let Some(v) = sk else { return; };\n use_it(v);\n}");
        assert_eq!(d, vec![(2, "secret-branch")]);
    }

    #[test]
    fn sanctioned_accessor_may_return_taint() {
        let d = run("fn secret_key(sk: &Scalar) -> &Scalar {\n sk\n}");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn guard_on_secret_fires() {
        let d = run("fn f(v: u64, sk: u64) {\n match v {\n n if n > sk => a(),\n _ => b(),\n }\n}");
        assert_eq!(d, vec![(3, "secret-branch")]);
    }

    #[test]
    fn ct_select_result_stays_tainted() {
        // ct_select is deliberately NOT a declassifier: selecting between
        // secrets yields a secret.
        let d = run(
            "fn f(sk: u64, a: u64, b: u64) -> u64 {\n let c = ct_select_limb(sk, a, b);\n c\n}",
        );
        assert_eq!(d, vec![(3, "secret-escape")]);
    }

    #[test]
    fn hash_declassifies() {
        let d = run("fn f(sk: &[u8]) -> [u8; 32] {\n sha256(sk)\n}");
        assert!(d.is_empty(), "{d:?}");
    }
}
