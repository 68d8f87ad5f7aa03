//! CYBOK-style search engine matching system model attributes to attack
//! vector corpora.
//!
//! This crate implements the paper's second capability: "associate attack
//! vector data to the general model". Inputs are a system model (from
//! [`cpssec_model`]) and security data "in the form of natural text" (from
//! [`cpssec_attackdb`]); the output is the association of attack vectors to
//! model elements.
//!
//! The matcher follows the behaviour the paper reports:
//!
//! * high-level descriptions match attack patterns and weaknesses, while
//!   specific product attributes match vulnerabilities;
//! * the result space is large and "highly sensitive to the fidelity of the
//!   model", so filtering ([`FilterPipeline`]) is a first-class operation;
//! * the databases interlink, so matched vulnerabilities can be chained
//!   through weaknesses to attack patterns ([`exploit_chains`]).
//!
//! # Examples
//!
//! ```
//! use cpssec_attackdb::seed::seed_corpus;
//! use cpssec_search::SearchEngine;
//!
//! let corpus = seed_corpus();
//! let engine = SearchEngine::build(&corpus);
//! let matches = engine.match_text("Cisco ASA");
//! assert!(!matches.vulnerabilities.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chains;
pub mod delta;
mod engine;
mod filter;
mod index;
mod score;
pub mod snapshot;
pub mod text;
pub mod view;

pub use chains::{chains_for_weakness, exploit_chains, ExploitChain};
pub use delta::{apply_delta, build as build_delta, compact_verified, inspect_delta, DeltaInfo};
pub use engine::{Hit, MatchConfig, MatchSet, QueryScratch, SearchEngine};
pub use filter::{Filter, FilterPipeline};
pub use index::InvertedIndex;
pub use score::{expand_query, ScoringModel, UnknownScoringModel};
pub use view::{CorpusView, SnapshotView};
