//! # athena-prefetchers
//!
//! Re-implementations of the six data prefetchers the Athena paper evaluates, plus two
//! simple reference prefetchers, all implementing [`athena_sim::Prefetcher`]:
//!
//! | Prefetcher | Cache level | Idea |
//! |---|---|---|
//! | [`NextLine`] | any | prefetch the next N sequential lines |
//! | [`StridePrefetcher`] | any | classic per-PC reference prediction table |
//! | [`Ipcp`] | L1D | instruction-pointer classification (constant-stride / complex / global stream) |
//! | [`Berti`] | L1D | timely local-delta learning per PC |
//! | [`Pythia`] | L2C | online reinforcement-learning prefetcher over delta actions |
//! | [`SppPpf`] | L2C | signature-path lookahead with a perceptron prefetch filter |
//! | [`Mlop`] | L2C | multi-lookahead offset prefetching over an access map |
//! | [`Sms`] | L2C | spatial memory streaming of region footprints |
//!
//! Every prefetcher honours its runtime `degree` so Athena's Q-value-driven aggressiveness
//! control (and HPAC-style throttling) can scale it between 1 and `max_degree()`.
//!
//! ```
//! use athena_prefetchers::Pythia;
//! use athena_sim::{CacheLevel, Prefetcher};
//!
//! let p = Pythia::new();
//! assert_eq!(p.name(), "pythia");
//! assert_eq!(p.level(), CacheLevel::L2c);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod berti;
mod ipcp;
mod mlop;
mod nextline;
mod pythia;
mod sms;
mod spp_ppf;
mod stride;

pub use berti::Berti;
pub use ipcp::Ipcp;
pub use mlop::Mlop;
pub use nextline::NextLine;
pub use pythia::Pythia;
pub use sms::Sms;
pub use spp_ppf::SppPpf;
pub use stride::StridePrefetcher;
