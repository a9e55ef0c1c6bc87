//! Estimation toolkit (paper §IV).
//!
//! Rotary's arbitration decisions rest on two families of estimates:
//!
//! 1. **Progress estimation** — how much attainment progress a job would
//!    make if granted resources for another epoch. Both Rotary-AQP and
//!    Rotary-DLT fit a curve through *historical* observations (from top-k
//!    similar completed jobs) and *real-time* observations (from the running
//!    job itself) using [weighted linear regression](wlr), with the paper's
//!    distinctive weighting: each real-time point and the combination of all
//!    historical points share equal weight ([`joint`]).
//! 2. **Resource estimation** — memory consumption, via table/column
//!    statistics (AQP, implemented in `rotary-engine`) or a
//!    batch-size→memory curve over similar historical jobs (DLT's TME,
//!    which uses [`similarity`] weighting).
//!
//! Rotary-AQP additionally uses a non-parametric [envelope]
//! detector over a sliding window of aggregation results to decide
//! convergence — which "can make mistakes" and produce the false attainment
//! of Fig. 7a.

pub mod envelope;
pub mod joint;
pub mod similarity;
pub mod wlr;

pub use envelope::EnvelopeDetector;
pub use joint::{CurveBasis, JointCurveEstimator};
pub use similarity::{scalar_similarity, top_k_by};
pub use wlr::{LinearFit, WeightedPoint};
