//! Synthetic dataset generator with the paper's split protocol.
//!
//! Each generated item carries a ground-truth label set over the dataset's
//! evaluation classes and a *latent semantic vector*: the weighted sum of the
//! prototypes of its labels, plus an occasional unlabeled distractor object
//! (real photos contain more than their annotations), plus isotropic context
//! noise. Downstream, `uhscm-vlp` derives both CLIP-style embeddings and
//! (noisier) CNN-style features from these latents; retrieval ground truth
//! — "two images are similar iff they share at least one label" (§4.2) —
//! uses the label sets directly.

use crate::concepts::prototype;
use crate::vocab;
use rand::Rng;
use uhscm_linalg::{rng, vecops, Matrix};

/// Which benchmark dataset to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// CIFAR-10: single-label, 10 classes.
    Cifar10Like,
    /// NUS-WIDE: multi-label over the 21 most frequent classes.
    NusWideLike,
    /// MIRFlickr-25K: multi-label over 24 classes.
    FlickrLike,
}

impl DatasetKind {
    /// All three benchmark datasets, in the paper's order.
    pub const ALL: [DatasetKind; 3] =
        [DatasetKind::Cifar10Like, DatasetKind::NusWideLike, DatasetKind::FlickrLike];

    /// Human-readable name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Cifar10Like => "CIFAR10",
            DatasetKind::NusWideLike => "NUS-WIDE",
            DatasetKind::FlickrLike => "MIRFlickr-25K",
        }
    }

    /// The evaluation class names.
    pub fn class_names(self) -> Vec<String> {
        match self {
            DatasetKind::Cifar10Like => vocab::cifar10_classes(),
            DatasetKind::NusWideLike => vocab::nus_wide_21(),
            DatasetKind::FlickrLike => vocab::mirflickr_24(),
        }
    }

    /// Whether items carry multiple labels.
    pub fn multi_label(self) -> bool {
        !matches!(self, DatasetKind::Cifar10Like)
    }

    /// Label co-occurrence groups (by class name). Multi-label sampling
    /// first picks a group, then includes each member with probability 0.55,
    /// which produces the overlapping label sets that make NUS-WIDE and
    /// MIRFlickr harder than CIFAR10 in the paper.
    pub(crate) fn cooccurrence_groups(self) -> Vec<Vec<&'static str>> {
        match self {
            DatasetKind::Cifar10Like => Vec::new(),
            DatasetKind::NusWideLike => vec![
                vec!["sky", "clouds", "sunset"],
                vec!["ocean", "beach", "water"],
                vec!["mountain", "snow", "rocks"],
                vec!["lake", "water", "reflection"],
                vec!["grass", "plants", "flowers"],
                vec!["buildings", "road", "window"],
                vec!["cars", "road"],
                vec!["person", "buildings"],
                vec!["animal", "grass"],
                vec!["toy", "person"],
                vec!["snow", "sky"],
                vec!["water", "rocks", "sky"],
            ],
            DatasetKind::FlickrLike => vec![
                vec!["sky", "clouds", "sunset"],
                vec!["sea", "water", "sky"],
                vec!["river", "water", "tree"],
                vec!["lake", "water"],
                vec!["people", "portrait", "female"],
                vec!["people", "portrait", "male"],
                vec!["baby", "people", "indoor"],
                vec!["animals", "dog"],
                vec!["animals", "bird", "tree"],
                vec!["flower", "plant life"],
                vec!["tree", "plant life", "sky"],
                vec!["car", "transport", "structures"],
                vec!["night", "structures", "sky"],
                vec!["food", "indoor"],
                vec!["indoor", "people"],
            ],
        }
    }
}

/// Size and noise parameters for dataset synthesis.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Training-set size (sampled from the database, as in §4.1).
    pub n_train: usize,
    /// Query (test) set size.
    pub n_query: usize,
    /// Database (retrieval target) size; disjoint from the query set.
    pub n_database: usize,
    /// Latent semantic dimensionality.
    pub latent_dim: usize,
    /// Standard deviation of the isotropic context noise added to latents.
    pub context_noise: f64,
    /// Probability that an image contains one unlabeled distractor object.
    pub distractor_prob: f64,
    /// Relative weight of a distractor prototype when present.
    pub distractor_weight: f64,
}

impl Default for DatasetConfig {
    /// Laptop-scale defaults (see DESIGN.md §7 for the mapping to the
    /// paper's sizes).
    fn default() -> Self {
        Self {
            n_train: 2_000,
            n_query: 500,
            n_database: 6_000,
            latent_dim: 64,
            context_noise: 0.40,
            distractor_prob: 0.4,
            distractor_weight: 0.55,
        }
    }
}

impl DatasetConfig {
    /// A very small configuration for unit tests.
    pub fn tiny() -> Self {
        Self { n_train: 100, n_query: 40, n_database: 300, ..Self::default() }
    }
}

/// Index split following §4.1: query and database are disjoint; the training
/// set is sampled from the database.
#[derive(Debug, Clone)]
pub struct Split {
    pub train: Vec<usize>,
    pub query: Vec<usize>,
    pub database: Vec<usize>,
}

/// A synthesized benchmark dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub kind: DatasetKind,
    /// Evaluation class names.
    pub class_names: Vec<String>,
    /// Ground-truth label sets (sorted class indices), one per item.
    pub labels: Vec<Vec<usize>>,
    /// `n × latent_dim` latent semantic vectors.
    pub latents: Matrix,
    pub split: Split,
}

impl Dataset {
    /// Generate a dataset deterministically from `seed`.
    ///
    /// ```
    /// use uhscm_data::{Dataset, DatasetConfig, DatasetKind};
    ///
    /// let ds = Dataset::generate(DatasetKind::NusWideLike, &DatasetConfig::tiny(), 42);
    /// assert_eq!(ds.class_names.len(), 21);
    /// assert_eq!(ds.split.query.len() + ds.split.database.len(), ds.len());
    /// // Multi-label: at least some items carry several labels.
    /// assert!(ds.labels.iter().any(|l| l.len() > 1));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `config.n_train > config.n_database` (the train split is
    /// drawn from the database partition), or if a co-occurrence group
    /// names a class the dataset kind does not define.
    pub fn generate(kind: DatasetKind, config: &DatasetConfig, seed: u64) -> Self {
        assert!(config.n_train <= config.n_database, "train set must fit in database");
        let mut r = rng::seeded(seed);
        let recipe = ItemRecipe::new(kind, config);
        let n = config.n_query + config.n_database;
        let mut labels = Vec::with_capacity(n);
        let mut latents = Matrix::zeros(n, config.latent_dim);
        for i in 0..n {
            labels.push(recipe.draw(&mut r, latents.row_mut(i)));
        }

        // Split: first n_query items are queries, the rest the database;
        // training indices are a random subset of the database.
        let query: Vec<usize> = (0..config.n_query).collect();
        let database: Vec<usize> = (config.n_query..n).collect();
        let train: Vec<usize> =
            rng::sample_without_replacement(&mut r, database.len(), config.n_train)
                .into_iter()
                .map(|offset| database[offset])
                .collect();

        let split = Split { train, query, database };
        Self { kind, class_names: recipe.class_names, labels, latents, split }
    }

    /// Total number of items (queries + database).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Latent vectors for a list of item indices, as a new matrix.
    pub fn latents_of(&self, indices: &[usize]) -> Matrix {
        self.latents.select_rows(indices)
    }

    /// Label sets for a list of item indices.
    pub fn labels_of(&self, indices: &[usize]) -> Vec<Vec<usize>> {
        indices.iter().map(|&i| self.labels[i].clone()).collect()
    }
}

/// The per-item synthesis both generators share: [`Dataset::generate`]
/// feeds it one sequential RNG, [`crate::LatentStream`] one RNG per item
/// index. Holds the kind's class names, its co-occurrence groups resolved
/// to class indices, and the class and distractor prototypes.
pub(crate) struct ItemRecipe {
    kind: DatasetKind,
    pub(crate) class_names: Vec<String>,
    groups: Vec<Vec<usize>>,
    class_protos: Vec<Vec<f64>>,
    /// The distractor pool: the NUS-WIDE 81 concepts.
    distractor_pool: Vec<Vec<f64>>,
    pub(crate) config: DatasetConfig,
}

impl ItemRecipe {
    /// Resolve `kind`'s co-occurrence groups and cache its prototypes.
    ///
    /// # Panics
    ///
    /// Panics if a co-occurrence group names a class `kind` does not
    /// define.
    pub(crate) fn new(kind: DatasetKind, config: &DatasetConfig) -> Self {
        let class_names = kind.class_names();
        let groups = kind
            .cooccurrence_groups()
            .iter()
            .map(|g| {
                g.iter()
                    .map(|name| {
                        class_names
                            .iter()
                            .position(|c| c == name)
                            .unwrap_or_else(|| panic!("group class {name} not in {kind:?}"))
                    })
                    .collect()
            })
            .collect();
        let class_protos = class_names.iter().map(|c| prototype(c, config.latent_dim)).collect();
        let distractor_pool =
            vocab::NUS_WIDE_81.iter().map(|c| prototype(c, config.latent_dim)).collect();
        Self { kind, class_names, groups, class_protos, distractor_pool, config: config.clone() }
    }

    /// Draw one item from `r` into the zeroed `row` and return its sorted
    /// label set: labels, then one weight per label's prototype, then a
    /// possible distractor, then context noise; the row ends unit-norm.
    pub(crate) fn draw(&self, r: &mut impl Rng, row: &mut [f64]) -> Vec<usize> {
        let labels = self.sample_labels(r);
        for &c in &labels {
            let w = r.gen_range(0.8..1.2);
            for (v, &p) in row.iter_mut().zip(&self.class_protos[c]) {
                *v += w * p;
            }
        }
        if r.gen::<f64>() < self.config.distractor_prob {
            let d = r.gen_range(0..self.distractor_pool.len());
            for (v, &p) in row.iter_mut().zip(&self.distractor_pool[d]) {
                *v += self.config.distractor_weight * p;
            }
        }
        // `context_noise` is the expected *norm* of the noise vector, so
        // the signal-to-noise ratio is independent of `latent_dim`.
        let sigma = self.config.context_noise / (self.config.latent_dim as f64).sqrt();
        for v in row.iter_mut() {
            *v += sigma * rng::gauss(r);
        }
        vecops::normalize(row);
        labels
    }

    /// Sample one item's label set.
    fn sample_labels(&self, r: &mut impl Rng) -> Vec<usize> {
        let n_classes = self.class_names.len();
        if !self.kind.multi_label() {
            return vec![r.gen_range(0..n_classes)];
        }
        let group = &self.groups[r.gen_range(0..self.groups.len())];
        let mut set: Vec<usize> = group.iter().copied().filter(|_| r.gen::<f64>() < 0.55).collect();
        if set.is_empty() {
            set.push(group[r.gen_range(0..group.len())]);
        }
        // Occasional unrelated extra label, as in real multi-label corpora.
        if r.gen::<f64>() < 0.25 {
            set.push(r.gen_range(0..n_classes));
        }
        set.sort_unstable();
        set.dedup();
        set
    }
}

/// Ground-truth relevance of §4.2: two items are similar iff their label
/// sets intersect. Inputs must be sorted ascending (as produced by
/// [`Dataset::generate`]).
pub fn share_label(a: &[usize], b: &[usize]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generation_is_deterministic() {
        let cfg = DatasetConfig::tiny();
        let a = Dataset::generate(DatasetKind::Cifar10Like, &cfg, 42);
        let b = Dataset::generate(DatasetKind::Cifar10Like, &cfg, 42);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.latents.as_slice(), b.latents.as_slice());
        assert_eq!(a.split.train, b.split.train);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = DatasetConfig::tiny();
        let a = Dataset::generate(DatasetKind::Cifar10Like, &cfg, 1);
        let b = Dataset::generate(DatasetKind::Cifar10Like, &cfg, 2);
        assert_ne!(a.latents.as_slice(), b.latents.as_slice());
    }

    #[test]
    fn split_respects_protocol() {
        let cfg = DatasetConfig::tiny();
        let d = Dataset::generate(DatasetKind::NusWideLike, &cfg, 7);
        assert_eq!(d.split.query.len(), cfg.n_query);
        assert_eq!(d.split.database.len(), cfg.n_database);
        assert_eq!(d.split.train.len(), cfg.n_train);
        let q: HashSet<_> = d.split.query.iter().collect();
        let db: HashSet<_> = d.split.database.iter().collect();
        assert!(q.is_disjoint(&db), "query and database overlap");
        assert!(d.split.train.iter().all(|i| db.contains(i)), "train not in database");
        let t: HashSet<_> = d.split.train.iter().collect();
        assert_eq!(t.len(), cfg.n_train, "duplicate training indices");
    }

    #[test]
    fn cifar_is_single_label() {
        let d = Dataset::generate(DatasetKind::Cifar10Like, &DatasetConfig::tiny(), 3);
        assert!(d.labels.iter().all(|l| l.len() == 1));
        assert!(d.labels.iter().all(|l| l[0] < 10));
    }

    #[test]
    fn multilabel_datasets_have_multilabel_items() {
        for kind in [DatasetKind::NusWideLike, DatasetKind::FlickrLike] {
            let d = Dataset::generate(kind, &DatasetConfig::tiny(), 5);
            assert!(d.labels.iter().any(|l| l.len() > 1), "{kind:?} never multi-label");
            assert!(d.labels.iter().all(|l| !l.is_empty()), "{kind:?} has empty label set");
            let n_classes = d.class_names.len();
            assert!(d.labels.iter().flatten().all(|&c| c < n_classes));
        }
    }

    #[test]
    fn labels_sorted_and_deduped() {
        let d = Dataset::generate(DatasetKind::FlickrLike, &DatasetConfig::tiny(), 9);
        for l in &d.labels {
            assert!(l.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicated {l:?}");
        }
    }

    #[test]
    fn all_classes_eventually_sampled() {
        let cfg = DatasetConfig {
            n_query: 200,
            n_database: 2_000,
            n_train: 100,
            ..DatasetConfig::tiny()
        };
        for kind in DatasetKind::ALL {
            let d = Dataset::generate(kind, &cfg, 11);
            let seen: HashSet<usize> = d.labels.iter().flatten().copied().collect();
            assert_eq!(seen.len(), d.class_names.len(), "{kind:?} missing classes");
        }
    }

    #[test]
    fn latents_unit_norm() {
        let d = Dataset::generate(DatasetKind::NusWideLike, &DatasetConfig::tiny(), 13);
        for row in d.latents.iter_rows() {
            assert!((vecops::norm(row) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn same_class_latents_more_similar() {
        let d = Dataset::generate(DatasetKind::Cifar10Like, &DatasetConfig::tiny(), 17);
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in 0..60 {
            for j in (i + 1)..60 {
                let c = vecops::cosine(d.latents.row(i), d.latents.row(j));
                if d.labels[i] == d.labels[j] {
                    same.push(c);
                } else {
                    diff.push(c);
                }
            }
        }
        assert!(vecops::mean(&same) > vecops::mean(&diff) + 0.3);
    }

    #[test]
    fn share_label_logic() {
        assert!(share_label(&[1, 3, 5], &[0, 5]));
        assert!(!share_label(&[1, 3], &[0, 2, 4]));
        assert!(!share_label(&[], &[1]));
        assert!(share_label(&[7], &[7]));
    }

    #[test]
    #[should_panic(expected = "train set must fit")]
    fn oversized_train_rejected() {
        let cfg = DatasetConfig { n_train: 500, n_database: 100, ..DatasetConfig::tiny() };
        let _ = Dataset::generate(DatasetKind::Cifar10Like, &cfg, 1);
    }
}
