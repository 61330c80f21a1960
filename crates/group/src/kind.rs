//! Named group instantiations and NIST security-level equivalences.

use crate::dl::{DlGroup, DlParams};
use crate::ec::{CurveParams, EcGroup};
use crate::traits::{Group, GroupImpl};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The six concrete groups the paper's evaluation uses.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum GroupKind {
    /// 1024-bit safe-prime DL group (80-bit security).
    Dl1024,
    /// 2048-bit safe-prime DL group (112-bit security).
    Dl2048,
    /// 3072-bit safe-prime DL group (128-bit security).
    Dl3072,
    /// secp160r1 (80-bit security) — the paper's default ECC group.
    Ecc160,
    /// secp224r1 (112-bit security).
    Ecc224,
    /// secp256r1 (128-bit security).
    Ecc256,
}

impl GroupKind {
    /// Returns (and caches) the group instance.
    ///
    /// Instances are process-wide singletons: the Montgomery contexts and
    /// the generator's comb table are shared by every protocol run.
    pub fn group(self) -> Group {
        static CACHE: OnceLock<[OnceLock<Group>; 6]> = OnceLock::new();
        let cache = CACHE.get_or_init(Default::default);
        cache[self.index()]
            .get_or_init(|| {
                let dl = |params| GroupImpl::Dl(Arc::new(DlGroup::new(params)));
                let ec = |params| GroupImpl::Ec(Arc::new(EcGroup::new(params)));
                let inner = match self {
                    GroupKind::Dl1024 => dl(DlParams::Modp1024),
                    GroupKind::Dl2048 => dl(DlParams::Modp2048),
                    GroupKind::Dl3072 => dl(DlParams::Modp3072),
                    GroupKind::Ecc160 => ec(CurveParams::secp160r1()),
                    GroupKind::Ecc224 => ec(CurveParams::secp224r1()),
                    GroupKind::Ecc256 => ec(CurveParams::secp256r1()),
                };
                Group {
                    kind: self,
                    inner,
                    gen_table: Default::default(),
                }
            })
            .clone()
    }

    fn index(self) -> usize {
        match self {
            GroupKind::Dl1024 => 0,
            GroupKind::Dl2048 => 1,
            GroupKind::Dl3072 => 2,
            GroupKind::Ecc160 => 3,
            GroupKind::Ecc224 => 4,
            GroupKind::Ecc256 => 5,
        }
    }

    /// Returns `true` for the DL family.
    pub fn is_dl(self) -> bool {
        matches!(
            self,
            GroupKind::Dl1024 | GroupKind::Dl2048 | GroupKind::Dl3072
        )
    }

    /// The equivalent symmetric security level per NIST SP 800-57.
    pub fn security_level(self) -> SecurityLevel {
        match self {
            GroupKind::Dl1024 | GroupKind::Ecc160 => SecurityLevel::Bits80,
            GroupKind::Dl2048 | GroupKind::Ecc224 => SecurityLevel::Bits112,
            GroupKind::Dl3072 | GroupKind::Ecc256 => SecurityLevel::Bits128,
        }
    }

    /// All kinds, in evaluation order.
    pub fn all() -> [GroupKind; 6] {
        [
            GroupKind::Dl1024,
            GroupKind::Dl2048,
            GroupKind::Dl3072,
            GroupKind::Ecc160,
            GroupKind::Ecc224,
            GroupKind::Ecc256,
        ]
    }
}

impl fmt::Display for GroupKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GroupKind::Dl1024 => "DL-1024",
            GroupKind::Dl2048 => "DL-2048",
            GroupKind::Dl3072 => "DL-3072",
            GroupKind::Ecc160 => "ECC-160",
            GroupKind::Ecc224 => "ECC-224",
            GroupKind::Ecc256 => "ECC-256",
        };
        f.write_str(s)
    }
}

/// NIST-equivalent symmetric security levels (the x-axis of Fig. 3(a)).
#[derive(Clone, Copy, Debug, Eq, PartialEq, Ord, PartialOrd, Hash)]
pub enum SecurityLevel {
    /// 80-bit symmetric ≈ DL-1024 ≈ ECC-160.
    Bits80,
    /// 112-bit symmetric ≈ DL-2048 ≈ ECC-224.
    Bits112,
    /// 128-bit symmetric ≈ DL-3072 ≈ ECC-256.
    Bits128,
}

impl SecurityLevel {
    /// The DL-family instantiation at this level.
    pub fn dl(self) -> GroupKind {
        match self {
            SecurityLevel::Bits80 => GroupKind::Dl1024,
            SecurityLevel::Bits112 => GroupKind::Dl2048,
            SecurityLevel::Bits128 => GroupKind::Dl3072,
        }
    }

    /// The ECC-family instantiation at this level.
    pub fn ecc(self) -> GroupKind {
        match self {
            SecurityLevel::Bits80 => GroupKind::Ecc160,
            SecurityLevel::Bits112 => GroupKind::Ecc224,
            SecurityLevel::Bits128 => GroupKind::Ecc256,
        }
    }

    /// Symmetric-equivalent bits.
    pub fn bits(self) -> u32 {
        match self {
            SecurityLevel::Bits80 => 80,
            SecurityLevel::Bits112 => 112,
            SecurityLevel::Bits128 => 128,
        }
    }

    /// All levels in ascending order.
    pub fn all() -> [SecurityLevel; 3] {
        [
            SecurityLevel::Bits80,
            SecurityLevel::Bits112,
            SecurityLevel::Bits128,
        ]
    }
}

impl fmt::Display for SecurityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_instances_are_shared() {
        let a = GroupKind::Ecc160.group();
        let b = GroupKind::Ecc160.group();
        assert_eq!(a.order(), b.order());
        assert_eq!(a.kind(), b.kind());
        // One generator table for every clone: the first fixed-base call
        // through either builds it for both.
        assert!(Arc::ptr_eq(&a.gen_table, &b.gen_table));
        let _ = a.exp_gen(&a.scalar_from_u64(2));
        assert!(b.gen_table.get().is_some());
    }

    #[test]
    fn security_level_map_is_consistent() {
        for level in SecurityLevel::all() {
            assert_eq!(level.dl().security_level(), level);
            assert_eq!(level.ecc().security_level(), level);
            assert!(level.dl().is_dl());
            assert!(!level.ecc().is_dl());
        }
    }

    #[test]
    fn element_sizes_ecc_much_smaller_than_dl() {
        // The Fig. 3(b) bandwidth argument: ECC ciphertexts are far smaller.
        let dl = GroupKind::Dl1024.group();
        let ec = GroupKind::Ecc160.group();
        assert_eq!(dl.element_len(), 128);
        assert_eq!(ec.element_len(), 21);
    }

    #[test]
    fn display_names() {
        assert_eq!(GroupKind::Dl2048.to_string(), "DL-2048");
        assert_eq!(SecurityLevel::Bits112.to_string(), "112-bit");
    }
}
