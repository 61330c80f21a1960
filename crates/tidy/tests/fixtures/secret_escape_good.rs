//! Good: every exit is declassified, re-wrapped, or secret-typed.

/// The clone goes straight back under `Secret` protection.
pub fn stash(nonce: &Secret<Scalar>) -> Secret<Scalar> {
    Secret::new(nonce.expose().clone())
}

/// Exponentiation declassifies: the public key is safe to return.
pub fn derive(group: &Group, sk: &Scalar) -> Element {
    group.exp_gen(sk)
}

/// A secret-bearing return type keeps the value inside the discipline.
pub fn rewrap(sk: Scalar) -> Secret<Scalar> {
    Secret::new(sk)
}

/// Formatting the *hash* of derived material is declassified.
pub fn trace_state(sk: &[u8]) {
    let digest = sha256(sk);
    println!("state = {digest:?}");
}

/// Building `Self` from a party stock is an aggregation boundary however it
/// is spelled: bound and returned, or as a struct-update base.
impl Machine {
    pub fn session(id: u64, stock: PartyStock) -> Self {
        let m = Self::new(id, stock);
        m
    }

    pub fn resumed(id: u64, stock: PartyStock) -> Self {
        Self {
            id,
            ..Self::new(id, stock)
        }
    }
}
