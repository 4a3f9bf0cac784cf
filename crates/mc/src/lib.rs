//! # vnet-mc
//!
//! An explicit-state model checker for the protocol specifications of
//! `vnet-protocol`, reproducing the paper's §VII verification setup:
//!
//! * **The Figure-4 ICN model.** Each virtual network is modeled by a
//!   pair of *global* FIFO buffers plus one input FIFO per endpoint.
//!   Without point-to-point ordering, a sender nondeterministically picks
//!   either global buffer, which lets the checker manifest every possible
//!   queueing/reordering an arbitrary topology could produce. With
//!   point-to-point ordering, each (source, destination) pair is pinned
//!   to one buffer by a static mapping, and different mappings are
//!   checked as separate runs.
//! * **System sizes that manifest the bugs.** The paper observes that
//!   the multi-directory deadlocks need ≥ 3 caches, 2 addresses, and 2
//!   directories; [`McConfig`] defaults match that.
//! * **Bounded BFS with level reporting.** Complete exploration when the
//!   space fits, otherwise a bounded verdict with the reached level —
//!   the same methodology (and the same kind of output) as the paper's
//!   Murphi runs.
//!
//! The checker finds three kinds of outcomes: a [`Verdict::Deadlock`]
//! with a shortest counterexample trace, a clean [`Verdict::NoDeadlock`]
//! (complete or bounded), or a [`Verdict::ModelError`] when a controller
//! receives a message its table does not define (a specification bug).
//!
//! ## Example
//!
//! ```
//! use vnet_mc::{explore, McConfig};
//! use vnet_protocol::protocols;
//!
//! // Textbook MSI with the textbook 3-VN mapping deadlocks with
//! // multiple directories (Table I experiment (6)).
//! let spec = protocols::msi_blocking_cache();
//! let cfg = McConfig::figure3(&spec);
//! let verdict = explore(&spec, &cfg);
//! assert!(verdict.is_deadlock());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod codec;
pub mod config;
pub mod exec;
pub mod explore;
pub mod flows;
pub mod intern;
pub mod invariant;
mod kernel;
pub mod murphi;
pub mod parallel;
pub mod procshard;
pub mod request;
pub mod rules;
pub mod spill;
pub mod state;
pub mod symmetry;
pub mod trace;

pub use campaign::{
    run_campaign, table1_config, CampaignConfig, CampaignEntry, CampaignReport, Isolation,
    RunReport,
};
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy};
pub use config::{IcnOrder, InjectionBudget, McConfig, VnMap};
pub use flows::{
    check_parameterized, check_vn_map, extract_flows, flows_canonical, Flow, FlowProvenance,
    FlowVerdict,
};
pub use intern::{InternError, StateArena, StateId};
pub use invariant::Swmr;
pub use explore::{
    explore, explore_budgeted, explore_budgeted_with, explore_checkpointed, explore_with, resume,
    CheckpointedRun, ExploreStats, Verdict,
};
pub use parallel::{
    explore_parallel, explore_parallel_supervised, resume_parallel, PanicInjection, ParallelOpts,
};
pub use procshard::{explore_procshard, run_worker, ProcOpts, WorkerOpts};
pub use request::{McRequest, VnChoice};
pub use spill::{SpillArena, SpillConfig, SpillStats};
pub use state::{GlobalState, Msg, Node};
pub use trace::Trace;
