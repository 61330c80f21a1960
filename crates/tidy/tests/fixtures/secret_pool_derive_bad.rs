//! Bad: derived Debug on offline-precomputed secret material.

#[derive(Clone, Debug)]
pub struct SchnorrNonce {
    pub nonce: [u64; 4],
}

#[derive(Debug)]
pub struct MaskPair {
    pub r: [u64; 4],
}

#[derive(Debug)]
pub struct PartyStock {
    pub secret: [u64; 4],
}
