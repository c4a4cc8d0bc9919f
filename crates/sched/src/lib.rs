//! `ups-sched` — the scheduling algorithms of the paper.
//!
//! One module per algorithm, all implementing `ups_net`'s
//! [`Scheduler`](ups_net::Scheduler) trait:
//!
//! | Module | Algorithm | Role in the paper |
//! |---|---|---|
//! | [`lstf`](mod@lstf) | Least Slack Time First | the near-universal scheduler |
//! | [`edf`](mod@edf) | network-wide EDF | static-header equivalent (App. E) |
//! | [`prio`] | static Priority / SJF | replay comparison, FCT baseline |
//! | [`srpt`] | SRPT + starvation prevention | FCT state of the art \[3\] |
//! | [`fq`] | Fair Queuing (SCFQ) | fairness state of the art \[12\] |
//! | [`fifoplus`] | FIFO+ | tail-delay state of the art \[11\] |
//! | [`lifo`] | LIFO | replay stress test |
//! | [`random`] | seeded Random | default "arbitrary" original schedule |
//! | [`keyed`] | generic comparator core | shared machinery |
//! | [`soa`] | struct-of-arrays ordered queue | shared machinery |
//! | [`factory`] | [`SchedKind`] | build-by-name for experiment configs |
//!
//! FIFO itself lives in `ups-net` (it is the port default) and is
//! re-exported here for completeness.

#![forbid(unsafe_code)]

pub mod edf;
pub mod factory;
pub mod fifoplus;
pub mod fq;
pub mod keyed;
pub mod lifo;
pub mod lstf;
pub mod prio;
pub mod random;
pub mod soa;
pub mod srpt;

pub use edf::{edf, Edf};
pub use factory::SchedKind;
pub use fifoplus::{fifo_plus, FifoPlus};
pub use fq::Fq;
pub use keyed::{KeyPolicy, Keyed};
pub use lifo::Lifo;
pub use lstf::{lstf, lstf_with, Lstf, LstfKeyMode};
pub use prio::{priority, sjf, StaticPriority};
pub use random::Random;
pub use srpt::Srpt;
pub use ups_net::Fifo;
