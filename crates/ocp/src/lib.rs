//! # athena-ocp
//!
//! Off-chip predictors (OCPs) evaluated by the Athena paper, implementing
//! [`athena_sim::OffChipPredictor`]:
//!
//! * [`Popet`] — the Hermes hashed-perceptron predictor (Bera et al., MICRO 2022): five
//!   program features vote through per-feature weight tables; predicts off-chip when the
//!   summed weight crosses an activation threshold.
//! * [`Hmp`] — a hit/miss predictor in the style of hybrid branch predictors (Yoaz et al.,
//!   ISCA 1999): local, gshare and gskew components with majority voting.
//! * [`Ttp`] — a tag-tracking predictor (Jalili & Erez, HPCA 2022): mirrors on-chip
//!   residency of cache-line tags and predicts off-chip when the tag is absent.
//!
//! ```
//! use athena_ocp::Popet;
//! use athena_sim::OffChipPredictor;
//!
//! let p = Popet::new();
//! assert_eq!(p.name(), "popet");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hmp;
mod popet;
mod ttp;

pub use hmp::Hmp;
pub use popet::Popet;
pub use ttp::Ttp;
