//! Bad: tainted values leaving the taint discipline — unwiped clones,
//! non-secret returns, and formatted derived values.

/// Clones an exposed pooled nonce into an unwiped copy.
pub fn stash(nonce: &Secret<Scalar>) -> () {
    let copy = nonce.expose().clone();
    keep(copy);
}

/// Returns secret-derived material through a plain type.
pub fn derive(sk: &Scalar) -> Scalar {
    sk.double()
}

impl Share {
    /// A `Self::` call is a constructor only where the function returns
    /// `Self`; through a plain type its result is secret-derived.
    pub fn doubled(sk: &Scalar) -> Scalar {
        Self::double(sk)
    }
}

/// Formats a secret-*derived* binding (the lexical rule only sees
/// registry names; this one is two steps removed).
pub fn trace_state(sk: u64) {
    let derived = sk.rotate_left(3);
    println!("state = {derived}");
}
