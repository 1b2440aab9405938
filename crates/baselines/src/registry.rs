//! A uniform registry over all ten baselines, used by the experiment
//! harness to sweep Table 1 / Figures 2-3.

use crate::deep::DeepBaselineConfig;
use crate::{agh, bgan, cib, gh, itq, lsh, mls3rduh, sh, ssdh, uth, UnsupervisedHasher};
use uhscm_linalg::Matrix;

/// Every baseline compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    Lsh,
    Sh,
    Itq,
    Agh,
    Ssdh,
    Gh,
    Bgan,
    Mls3rduh,
    Cib,
    Uth,
}

impl BaselineKind {
    /// The baselines of Table 1, in row order (UTH appears in §4.1's list
    /// but not in Table 1; it is kept at the end).
    pub const TABLE1: [BaselineKind; 9] = [
        BaselineKind::Lsh,
        BaselineKind::Sh,
        BaselineKind::Itq,
        BaselineKind::Agh,
        BaselineKind::Ssdh,
        BaselineKind::Gh,
        BaselineKind::Bgan,
        BaselineKind::Mls3rduh,
        BaselineKind::Cib,
    ];

    /// All implemented baselines.
    pub const ALL: [BaselineKind; 10] = [
        BaselineKind::Lsh,
        BaselineKind::Sh,
        BaselineKind::Itq,
        BaselineKind::Agh,
        BaselineKind::Ssdh,
        BaselineKind::Gh,
        BaselineKind::Bgan,
        BaselineKind::Mls3rduh,
        BaselineKind::Cib,
        BaselineKind::Uth,
    ];

    /// Paper-facing name.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::Lsh => "LSH",
            BaselineKind::Sh => "SH",
            BaselineKind::Itq => "ITQ",
            BaselineKind::Agh => "AGH",
            BaselineKind::Ssdh => "SSDH",
            BaselineKind::Gh => "GH",
            BaselineKind::Bgan => "BGAN",
            BaselineKind::Mls3rduh => "MLS3RDUH",
            BaselineKind::Cib => "CIB",
            BaselineKind::Uth => "UTH",
        }
    }

    /// Train this baseline on `features`, producing `bits`-bit codes.
    /// Shallow methods ignore `config`.
    pub fn train(
        self,
        features: &Matrix,
        bits: usize,
        config: &DeepBaselineConfig,
        seed: u64,
    ) -> Box<dyn UnsupervisedHasher> {
        match self {
            BaselineKind::Lsh => Box::new(lsh::Lsh::train(features, bits, seed)),
            BaselineKind::Sh => Box::new(sh::SpectralHashing::train(features, bits, seed)),
            BaselineKind::Itq => Box::new(itq::Itq::train(features, bits, seed)),
            BaselineKind::Agh => Box::new(agh::Agh::train(features, bits, seed)),
            BaselineKind::Ssdh => Box::new(ssdh::train(features, bits, config, seed)),
            BaselineKind::Gh => Box::new(gh::train(features, bits, config, seed)),
            BaselineKind::Bgan => Box::new(bgan::train(features, bits, config, seed)),
            BaselineKind::Mls3rduh => Box::new(mls3rduh::train(features, bits, config, seed)),
            BaselineKind::Cib => Box::new(cib::train(features, bits, config, seed)),
            BaselineKind::Uth => Box::new(uth::train(features, bits, config, seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_linalg::{rng, vecops};

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = BaselineKind::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BaselineKind::ALL.len());
    }

    #[test]
    fn all_baselines_train_and_encode() {
        let mut r = rng::seeded(1);
        let mut rows = Vec::new();
        for c in 0..4 {
            for _ in 0..20 {
                let mut v = rng::gauss_vec(&mut r, 16, 0.25);
                v[c * 4] += 1.0;
                vecops::normalize(&mut v);
                rows.push(v);
            }
        }
        let x = Matrix::from_rows(&rows);
        let cfg = DeepBaselineConfig { epochs: 3, ..DeepBaselineConfig::test_profile() };
        for kind in BaselineKind::ALL {
            let model = kind.train(&x, 8, &cfg, 7);
            assert_eq!(model.bits(), 8, "{}", kind.name());
            let codes = model.encode(&x);
            assert_eq!(codes.len(), 80, "{}", kind.name());
            assert_eq!(model.name(), kind.name());
        }
    }

    #[test]
    fn table1_is_subset_of_all() {
        for b in BaselineKind::TABLE1 {
            assert!(BaselineKind::ALL.contains(&b));
        }
    }
}
