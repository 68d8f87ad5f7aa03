//! Multi-stage attack campaign engine.
//!
//! This crate closes the loop the paper argues for: it takes the
//! *textual* associations the search layer mines (CAPEC → CWE → CVE
//! exploit chains matched against model attributes) and asks the only
//! question that matters for a cyber-physical system — *what happens to
//! the plant?*
//!
//! The pipeline has two halves:
//!
//! * the **chain compiler** ([`compile_chains`]) attaches every mined
//!   [`cpssec_search::ExploitChain`] to the component whose match set
//!   produced it, pairs it with a testbed attack scenario via CWE/CAPEC
//!   provenance, and lays the model's entry-point→target shortest path
//!   down as an ordered stage plan (initial access → pivots → actuate);
//! * the **executor/scorer** ([`run_campaign`]) replays each executable
//!   plan as a staged injection on the event-driven kernel — stages gate
//!   on observed deliveries, so a firewall that denies the pivot stops
//!   the campaign cold — and scores the outcome as
//!   [`CampaignVerdict::ReachedHazard`], [`CampaignVerdict::Contained`],
//!   or [`CampaignVerdict::TextualOnly`].
//!
//! Campaigns are deterministic: per-chain seeds derive from the campaign
//! seed with SplitMix64, records come back in compile order regardless
//! of thread count, and [`records_hash`] pins the whole run to a single
//! FNV-1a value.
//!
//! # Examples
//!
//! ```
//! use cpssec_campaign::{run_campaign, verdict_counts, CampaignRun, Testbed};
//!
//! let mut run = CampaignRun::new(Testbed::Centrifuge, 42);
//! run.chain_limit = 4; // keep the doctest quick
//! let records = run_campaign(&run);
//! let (reached, contained, textual) = verdict_counts(&records);
//! assert_eq!(reached + contained + textual, records.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod execute;

pub use compile::{compile_chains, compile_chains_with, ChainPlan};
pub use cpssec_scada::Testbed;
pub use execute::{
    records_hash, run_campaign, run_campaign_with_progress, score, verdict_counts, CampaignRun,
    CampaignVerdict, ChainRecord,
};
