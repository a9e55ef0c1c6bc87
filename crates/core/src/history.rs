//! The historical-job repository (paper Fig. 5 "Store" and §IV-B).
//!
//! Rotary "stores the progressive iterative analytic jobs and tracks
//! intermediate processing results since such information can be used to
//! provide a better estimation". For completed DLT jobs the paper keeps
//! "model architecture, training hyperparameters, training epochs, and
//! evaluation accuracy"; for AQP jobs, query features and progress-runtime
//! observations. [`JobRecord`] captures both shapes with a label, string
//! tags, numeric features, and the observed metric curve.
//!
//! Similarity search runs over *feature classes*, not records: records whose
//! `(kind, label, tags, numeric_features)` are identical form one class, a
//! similarity score reads exactly those fields, and so it is computed once
//! per class. A long-running arbiter archives the same job shapes over and
//! over; the class count is bounded by the number of distinct shapes, the
//! record count is not.
//!
//! Classes are filed further into *buckets* their typed rows name, and a
//! query bounds each bucket's best score: buckets that cannot reach the
//! top k are never scored (DESIGN.md §13, "Bounded selection").

use crate::error::{Result, RotaryError};
use crate::job::JobKind;
use crate::json::{self, CompactPrefix, Json};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;

mod index;
use index::ClassIndex;

/// What a similarity score reads of one feature class, extracted once per
/// class by [`HistoryRepository::top_k_rows`], and the bucket that files
/// the class for bounded selection. Callers with nothing to bound use one
/// bucket (`type Bucket = ()`) with bound `+∞`.
pub trait ClassRow: Send + Sync + 'static {
    /// The bucket key; classes with equal keys share a bound.
    type Bucket: Ord + Copy + Send + Sync + 'static;

    /// The bucket this row's class is filed under.
    fn bucket(&self) -> Self::Bucket;
}

/// A completed job's footprint in the repository.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Application family the record belongs to.
    pub kind: JobKind,
    /// Human-readable identity: `"q5"`, `"ResNet-18"`, ….
    pub label: String,
    /// Categorical features: referenced tables/columns for AQP, optimizer
    /// name or dataset for DLT.
    pub tags: Vec<String>,
    /// Numeric features: batch size, learning rate, parameter count (in
    /// millions), estimated memory, ….
    pub numeric_features: BTreeMap<String, f64>,
    /// The observed metric curve as `(x, metric)` pairs — x is runtime
    /// seconds for AQP, epochs for DLT.
    pub curve: Vec<(f64, f64)>,
    /// Final metric value when the job finished.
    pub final_metric: f64,
    /// Total epochs the job ran.
    pub epochs: u64,
}

impl JobRecord {
    /// Reads a numeric feature, if present.
    pub fn feature(&self, name: &str) -> Option<f64> {
        self.numeric_features.get(name).copied()
    }

    fn to_json_value(&self) -> Json {
        let kind = match self.kind {
            JobKind::Aqp => "aqp",
            JobKind::Dlt => "dlt",
        };
        Json::obj(vec![
            ("kind", Json::Str(kind.into())),
            ("label", Json::Str(self.label.clone())),
            ("tags", Json::Arr(self.tags.iter().map(|t| Json::Str(t.clone())).collect())),
            ("numeric_features", json::num_map_to_json(&self.numeric_features)),
            (
                "curve",
                Json::Arr(
                    self.curve
                        .iter()
                        .map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)]))
                        .collect(),
                ),
            ),
            ("final_metric", Json::Num(self.final_metric)),
            ("epochs", Json::Num(self.epochs as f64)),
        ])
    }

    fn from_json_value(v: &Json) -> std::result::Result<JobRecord, String> {
        let field = |name: &str| v.get(name).ok_or_else(|| format!("missing field '{name}'"));
        let kind = match field("kind")?.as_str().ok_or("'kind' is not a string")? {
            "aqp" => JobKind::Aqp,
            "dlt" => JobKind::Dlt,
            other => return Err(format!("unknown job kind '{other}'")),
        };
        let tags = field("tags")?
            .as_arr()
            .ok_or("'tags' is not an array")?
            .iter()
            .map(|t| t.as_str().map(String::from).ok_or("tag is not a string".to_string()))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let curve = field("curve")?
            .as_arr()
            .ok_or("'curve' is not an array")?
            .iter()
            .map(|p| {
                let pair =
                    p.as_arr().filter(|a| a.len() == 2).ok_or("curve point is not a pair")?;
                match (pair[0].as_f64(), pair[1].as_f64()) {
                    (Some(x), Some(y)) => Ok((x, y)),
                    _ => Err("curve point is not numeric".to_string()),
                }
            })
            .collect::<std::result::Result<Vec<_>, String>>()?;
        Ok(JobRecord {
            kind,
            label: field("label")?.as_str().ok_or("'label' is not a string")?.to_string(),
            tags,
            numeric_features: json::num_map_from_json(field("numeric_features")?)?,
            curve,
            final_metric: field("final_metric")?.as_f64().ok_or("'final_metric' not numeric")?,
            epochs: field("epochs")?.as_u64().ok_or("'epochs' not an integer")?,
        })
    }
}

/// In-memory repository of completed jobs with JSON persistence.
///
/// The repository is append-only during a run: estimators read it, the
/// execution loop inserts completed jobs.
#[derive(Debug, Default)]
pub struct HistoryRepository {
    records: Vec<JobRecord>,
    index: ClassIndex,
    /// The records [`HistoryRepository::to_compact`] already encoded.
    /// Derived like `index`: caught up on read, reset by anything but an
    /// append.
    emitted: RefCell<CompactPrefix>,
    /// Rows scored by [`HistoryRepository::top_k_rows`] so far.
    scored: u64,
}

impl Clone for HistoryRepository {
    fn clone(&self) -> Self {
        HistoryRepository { records: self.records.clone(), ..HistoryRepository::default() }
    }
}

impl HistoryRepository {
    /// Creates an empty repository (the cold-start condition).
    pub fn new() -> Self {
        HistoryRepository::default()
    }

    /// Inserts a completed-job record.
    pub fn insert(&mut self, record: JobRecord) {
        self.records.push(record);
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no job has completed yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over all records.
    pub fn iter(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter()
    }

    /// Records of one application family, in insertion order.
    pub fn of_kind(&self, kind: JobKind) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// Number of feature classes: distinct `(kind, label, tags,
    /// numeric_features)` among the records. Similarity search costs at
    /// most one score per class.
    pub fn class_count(&mut self) -> usize {
        self.index.catch_up(&self.records);
        self.index.class_count()
    }

    /// Rows scored by [`HistoryRepository::top_k_rows`] since this
    /// repository was created, loaded or cloned: one per feature class a
    /// query could not prune. A count, not a timing.
    pub fn rows_scored(&self) -> u64 {
        self.scored
    }

    /// Removes every record whose label satisfies the predicate. Returns how
    /// many were removed. (Used by the Fig. 11 micro-benchmark, which drops
    /// all NLP-model history to force erroneous estimation.)
    pub fn remove_where<F: Fn(&JobRecord) -> bool>(&mut self, predicate: F) -> usize {
        let before = self.records.len();
        self.records.retain(|r| !predicate(r));
        let removed = before - self.records.len();
        if removed > 0 {
            self.index = ClassIndex::default();
            *self.emitted.get_mut() = CompactPrefix::default();
        }
        removed
    }

    /// Selects the top-k records of `kind` by a caller-supplied similarity
    /// score, descending; ties keep insertion order and records with a
    /// non-finite score are skipped — the prefix a stable sort of every
    /// scored record yields.
    ///
    /// `extract` reads what the score needs out of a record, and `score`
    /// sees only that row. Both must be pure functions of the record's
    /// `kind`, `label`, `tags` and `numeric_features` — never of its
    /// `curve`, `final_metric` or `epochs`: a row is extracted once per
    /// feature class, from the class's first record, and its score stands
    /// for every member. Rows are derived state kept between calls; a call
    /// with a different row type re-extracts them.
    ///
    /// `bound` must return, for each bucket of rows, an upper bound on
    /// every finite score in it, or NaN when no score in it is finite. A
    /// bucket whose bound is strictly below the k-th best score found is
    /// never scored. Takes `&mut self` to file the records inserted since
    /// the last query.
    pub fn top_k_rows<R, X, B, F>(
        &mut self,
        kind: JobKind,
        k: usize,
        extract: X,
        bound: B,
        mut score: F,
    ) -> Vec<(&JobRecord, f64)>
    where
        R: ClassRow,
        X: Fn(&JobRecord) -> R,
        B: FnMut(&R::Bucket) -> f64,
        F: FnMut(&R) -> f64,
    {
        let scored = &mut self.scored;
        let counted = |row: &R| {
            *scored += 1;
            score(row)
        };
        let best = self.index.top_k(&self.records, kind, k, extract, bound, counted);
        best.into_iter().map(|(at, s)| (&self.records[at as usize], s)).collect()
    }

    /// Serialises the repository to pretty JSON.
    pub fn to_json(&self) -> Result<String> {
        Ok(self.to_json_value().to_pretty())
    }

    /// The repository as a JSON tree; [`HistoryRepository::from_json`]
    /// reads any rendering of it.
    pub fn to_json_value(&self) -> Json {
        let records = Json::Arr(self.records.iter().map(JobRecord::to_json_value).collect());
        Json::obj(vec![("records", records)])
    }

    /// [`HistoryRepository::to_json_value`] written compact, byte for byte,
    /// with each record encoded once: a later call encodes only the records
    /// inserted since (durable snapshots write the repository every
    /// generation).
    pub fn to_compact(&self) -> String {
        let mut records = self.emitted.borrow_mut();
        records.catch_up(&self.records, JobRecord::to_json_value);
        let mut out = String::with_capacity(records.bytes() + 16);
        out.push_str("{\"records\":");
        records.write_array(&mut out);
        out.push('}');
        out
    }

    /// Restores a repository from JSON.
    pub fn from_json(text: &str) -> Result<Self> {
        let doc = json::parse(text).map_err(RotaryError::Persistence)?;
        let records = doc
            .get("records")
            .and_then(Json::as_arr)
            .ok_or_else(|| RotaryError::Persistence("missing 'records' array".into()))?
            .iter()
            .map(JobRecord::from_json_value)
            .collect::<std::result::Result<Vec<_>, String>>()
            .map_err(RotaryError::Persistence)?;
        Ok(HistoryRepository { records, ..HistoryRepository::default() })
    }

    /// Writes the repository to a file.
    pub fn save(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.to_json()?)
            .map_err(|e| RotaryError::Persistence(format!("{}: {e}", path.display())))
    }

    /// Loads a repository from a file.
    pub fn load(path: &Path) -> Result<Self> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| RotaryError::Persistence(format!("{}: {e}", path.display())))?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::similarity::scalar_similarity;

    fn record(label: &str, kind: JobKind, params_m: f64) -> JobRecord {
        JobRecord {
            kind,
            label: label.into(),
            tags: vec!["cifar10".into()],
            numeric_features: BTreeMap::from([("params_m".into(), params_m)]),
            curve: vec![(1.0, 0.4), (2.0, 0.6)],
            final_metric: 0.6,
            epochs: 2,
        }
    }

    #[test]
    fn insert_and_filter_by_kind() {
        let mut repo = HistoryRepository::new();
        assert!(repo.is_empty());
        repo.insert(record("resnet18", JobKind::Dlt, 11.7));
        repo.insert(record("q5", JobKind::Aqp, 0.0));
        assert_eq!(repo.len(), 2);
        assert_eq!(repo.of_kind(JobKind::Dlt).count(), 1);
        assert_eq!(repo.of_kind(JobKind::Aqp).next().unwrap().label, "q5");
    }

    /// A record's parameter count, all in one bucket.
    struct Params(f64);

    impl ClassRow for Params {
        type Bucket = ();
        fn bucket(&self) {}
    }

    fn params(r: &JobRecord) -> Params {
        Params(r.feature("params_m").unwrap_or(0.0))
    }

    /// A parameter count filed under its own bit pattern: the bound of a
    /// bucket is its exact score.
    struct Exact(f64);

    impl ClassRow for Exact {
        type Bucket = u64;
        fn bucket(&self) -> u64 {
            self.0.to_bits()
        }
    }

    #[test]
    fn top_k_by_parameter_count() {
        let mut repo = HistoryRepository::new();
        for (label, p) in
            [("lenet", 0.06), ("resnet18", 11.7), ("resnet34", 21.8), ("vgg16", 138.0)]
        {
            repo.insert(record(label, JobKind::Dlt, p));
        }
        let target = 12.0;
        let top = repo.top_k_rows(
            JobKind::Dlt,
            2,
            params,
            |_| f64::INFINITY,
            |p| scalar_similarity(target, p.0),
        );
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0.label, "resnet18");
        assert_eq!(top[1].0.label, "resnet34");
    }

    #[test]
    fn similarity_is_scored_once_per_class_not_per_record() {
        use std::cell::Cell;
        let mut repo = HistoryRepository::new();
        // Three classes; ten records each, differing only in their curves.
        for copy in 0..10 {
            for (label, p) in [("lenet", 0.06), ("resnet18", 11.7), ("vgg16", 138.0)] {
                let mut r = record(label, JobKind::Dlt, p);
                r.curve.push((3.0, f64::from(copy)));
                repo.insert(r);
            }
        }
        assert_eq!((repo.len(), repo.class_count()), (30, 3));

        let (extracted, scored) = (Cell::new(0), Cell::new(0));
        let counted = |r: &JobRecord| {
            extracted.set(extracted.get() + 1);
            params(r)
        };
        let top = repo.top_k_rows(
            JobKind::Dlt,
            4,
            counted,
            |_| f64::INFINITY,
            |p| scalar_similarity(12.0, p.0),
        );
        // Members of the best class, oldest first.
        assert!(top.iter().all(|(r, _)| r.label == "resnet18"));
        let copies: Vec<f64> = top.iter().map(|(r, _)| r.curve[2].1).collect();
        assert_eq!(copies, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!((extracted.get(), repo.rows_scored()), (3, 3));

        // Typed rows are extracted once per class and kept between calls.
        for _ in 0..2 {
            let top = repo.top_k_rows(
                JobKind::Dlt,
                1,
                counted,
                |_| f64::INFINITY,
                |p| {
                    scored.set(scored.get() + 1);
                    scalar_similarity(100.0, p.0)
                },
            );
            assert_eq!(top[0].0.label, "vgg16");
        }
        assert_eq!((extracted.get(), scored.get()), (3, 6));
        repo.insert(record("bert", JobKind::Dlt, 110.0));
        repo.top_k_rows(
            JobKind::Dlt,
            1,
            counted,
            |_| f64::INFINITY,
            |p| scalar_similarity(100.0, p.0),
        );
        assert_eq!((extracted.get(), repo.rows_scored()), (4, 3 + 6 + 4));
    }

    #[test]
    fn buckets_that_cannot_reach_the_top_k_are_never_scored() {
        let mut repo = HistoryRepository::new();
        for (label, p) in [("lenet", 0.06), ("resnet18", 11.7), ("vgg16", 138.0), ("bert", 110.0)] {
            for _ in 0..3 {
                repo.insert(record(label, JobKind::Dlt, p));
            }
        }
        // vgg16 scores 0.94, bert 0.85, the others below 0.1.
        let target = 130.0;
        let exact = |bits: &u64| scalar_similarity(target, f64::from_bits(*bits));
        let similar = |p: &Exact| scalar_similarity(target, p.0);
        let labels = |top: Vec<(&JobRecord, f64)>| -> Vec<String> {
            top.into_iter().map(|(r, _)| r.label.clone()).collect()
        };

        // Three members of the best class fill k = 3: one class scored.
        let top = repo.top_k_rows(JobKind::Dlt, 3, |r| Exact(params(r).0), exact, similar);
        assert_eq!(labels(top), ["vgg16"; 3]);
        assert_eq!(repo.rows_scored(), 1);
        // k = 4 reaches into the second-best class, and no further.
        let top = repo.top_k_rows(JobKind::Dlt, 4, |r| Exact(params(r).0), exact, similar);
        assert_eq!(labels(top), ["vgg16", "vgg16", "vgg16", "bert"]);
        assert_eq!(repo.rows_scored(), 1 + 2);
        // A NaN bound skips its bucket unscored; k = 0 scores nothing.
        let no_vgg =
            |bits: &u64| if f64::from_bits(*bits) > 120.0 { f64::NAN } else { exact(bits) };
        let top = repo.top_k_rows(JobKind::Dlt, 1, |r| Exact(params(r).0), no_vgg, similar);
        assert_eq!(labels(top), ["bert"]);
        assert!(repo
            .top_k_rows(JobKind::Dlt, 0, |r| Exact(params(r).0), exact, similar)
            .is_empty());
        assert_eq!(repo.rows_scored(), 1 + 2 + 1);
        // The other kind's buckets are separate.
        assert!(repo
            .top_k_rows(JobKind::Aqp, 5, |r| Exact(params(r).0), exact, similar)
            .is_empty());

        // A bound equal to the k-th score is scanned: "a" ties "b" on score
        // and wins on insertion order, though its bucket's bound is lower.
        let mut tied = HistoryRepository::new();
        tied.insert(record("a", JobKind::Dlt, 1.0));
        tied.insert(record("b", JobKind::Dlt, 2.0));
        let loose = |bits: &u64| if f64::from_bits(*bits) == 2.0 { 0.9 } else { 0.5 };
        let top = tied.top_k_rows(JobKind::Dlt, 1, |r| Exact(params(r).0), loose, |_| 0.5);
        assert_eq!(labels(top), ["a"]);
        assert_eq!(tied.rows_scored(), 2);
    }

    #[test]
    fn remove_where_drops_matching_records() {
        let mut repo = HistoryRepository::new();
        repo.insert(record("bert", JobKind::Dlt, 110.0));
        repo.insert(record("lstm", JobKind::Dlt, 2.0));
        repo.insert(record("resnet18", JobKind::Dlt, 11.7));
        let removed = repo.remove_where(|r| r.label == "bert" || r.label == "lstm");
        assert_eq!(removed, 2);
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.iter().next().unwrap().label, "resnet18");
    }

    #[test]
    fn json_round_trip() {
        let mut repo = HistoryRepository::new();
        repo.insert(record("resnet18", JobKind::Dlt, 11.7));
        let json = repo.to_json().unwrap();
        let restored = HistoryRepository::from_json(&json).unwrap();
        assert_eq!(restored.len(), 1);
        assert_eq!(restored.iter().next().unwrap(), repo.iter().next().unwrap());
    }

    #[test]
    fn compact_text_equals_the_tree_through_appends_removals_clones_and_reloads() {
        let same = |repo: &HistoryRepository| {
            assert_eq!(repo.to_compact(), repo.to_json_value().to_compact());
        };
        let mut repo = HistoryRepository::new();
        same(&repo);
        for (label, p) in [("lenet", 0.06), ("resnet18", 11.7), ("bert", 110.0)] {
            repo.insert(record(label, JobKind::Dlt, p));
            same(&repo);
            same(&repo);
        }
        let mut copy = repo.clone();
        copy.insert(record("q5", JobKind::Aqp, 0.0));
        same(&copy);
        same(&repo);
        assert_eq!(repo.remove_where(|r| r.label == "nothing"), 0);
        same(&repo);
        assert_eq!(repo.remove_where(|r| r.label == "resnet18"), 1);
        same(&repo);
        repo.insert(record("vgg16", JobKind::Dlt, 138.0));
        same(&repo);
        let mut reloaded = HistoryRepository::from_json(&repo.to_compact()).unwrap();
        same(&reloaded);
        reloaded.insert(record("q7", JobKind::Aqp, 0.0));
        same(&reloaded);
        assert_eq!(reloaded.remove_where(|_| true), 4);
        same(&reloaded);
    }

    #[test]
    fn file_round_trip() {
        let mut repo = HistoryRepository::new();
        repo.insert(record("q7", JobKind::Aqp, 0.0));
        let dir = std::env::temp_dir().join("rotary-history-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.json");
        repo.save(&path).unwrap();
        let restored = HistoryRepository::load(&path).unwrap();
        assert_eq!(restored.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_persistence_error() {
        let err = HistoryRepository::load(Path::new("/nonexistent/rotary.json")).unwrap_err();
        assert!(matches!(err, RotaryError::Persistence(_)));
    }

    #[test]
    fn from_bad_json_is_persistence_error() {
        assert!(matches!(
            HistoryRepository::from_json("{not json"),
            Err(RotaryError::Persistence(_))
        ));
    }
}
