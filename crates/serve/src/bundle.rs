//! Hot-reloadable model bundle: the hashing network and its concept
//! vocabulary, swapped as one atomic unit.
//!
//! The serve path must never encode a query with a model from one bundle
//! and interpret it against the vocabulary of another — UHSCM's mined
//! concepts are only meaningful relative to the model that was trained
//! against them. Packaging both in a single [`Bundle`] behind one
//! `Arc` swap (see `Engine::install_bundle`) makes a torn pair
//! unrepresentable: every reader clones the `Arc` once and sees exactly one
//! `(model, vocab)` version for the lifetime of that reference.

use std::fs;
use std::io;
use std::path::Path;

use uhscm_nn::Mlp;

/// One immutable model + vocabulary pair, tagged with a monotonically
/// increasing version (0 for the bundle the server started with).
pub struct Bundle {
    pub version: u64,
    pub model: Mlp,
    /// Mined concept vocabulary, one term per `vocab.txt` line; empty when
    /// the bundle directory ships no vocabulary.
    pub vocab: Vec<String>,
}

impl Bundle {
    /// The bundle a server boots with (version 0). Crate-internal: outside
    /// callers go through [`crate::Engine::with_vocab_index`], which validates
    /// widths before wrapping.
    pub(crate) fn initial(model: Mlp, vocab: Vec<String>) -> Bundle {
        Bundle { version: 0, model, vocab }
    }

    /// Load the `(model, vocab)` pair from a bundle directory: `model.nn`
    /// (required, checksummed [`Mlp`] format) plus `vocab.txt` (optional,
    /// one term per line, blank lines skipped).
    ///
    /// # Errors
    ///
    /// I/O errors propagate; a corrupt `model.nn` surfaces as
    /// `InvalidData`. Both name the file. The caller assigns the version at
    /// install time, so a failed load leaves the serving bundle untouched.
    pub fn load_dir(dir: &Path) -> io::Result<(Mlp, Vec<String>)> {
        let path = dir.join("model.nn");
        let named = |kind, e: &dyn std::fmt::Display| {
            io::Error::new(kind, format!("{}: {e}", path.display()))
        };
        let mut net_file = fs::File::open(&path).map_err(|e| named(e.kind(), &e))?;
        let model = Mlp::load(&mut net_file).map_err(|e| named(io::ErrorKind::InvalidData, &e))?;
        let vocab = match fs::read_to_string(dir.join("vocab.txt")) {
            Ok(raw) => raw
                .lines()
                .map(str::trim)
                .filter(|line| !line.is_empty())
                .map(str::to_string)
                .collect(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        Ok((model, vocab))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_linalg::rng::seeded;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("uhscm-bundle-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp bundle dir");
        dir
    }

    #[test]
    fn load_dir_round_trips_model_and_vocab() {
        let dir = temp_dir("roundtrip");
        let mut rng = seeded(77);
        let model = Mlp::hashing_network(5, &[3], 8, &mut rng);
        let mut f = fs::File::create(dir.join("model.nn")).expect("create model.nn");
        model.save(&mut f).expect("save model");
        fs::write(dir.join("vocab.txt"), "sky\n\n  ocean \nforest\n").expect("write vocab");

        let (loaded, vocab) = Bundle::load_dir(&dir).expect("load bundle dir");
        assert_eq!(loaded.flat_params(), model.flat_params());
        assert_eq!(vocab, vec!["sky", "ocean", "forest"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_vocab_is_empty_not_an_error() {
        let dir = temp_dir("novocab");
        let mut rng = seeded(78);
        let model = Mlp::hashing_network(4, &[], 6, &mut rng);
        let mut f = fs::File::create(dir.join("model.nn")).expect("create model.nn");
        model.save(&mut f).expect("save model");

        let (_, vocab) = Bundle::load_dir(&dir).expect("load without vocab");
        assert!(vocab.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_model_is_an_error() {
        let dir = temp_dir("nomodel");
        let err = Bundle::load_dir(&dir).expect_err("no model.nn");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("model.nn"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
