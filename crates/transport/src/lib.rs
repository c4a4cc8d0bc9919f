//! `ups-transport` — endpoint transports over the simulated network.
//!
//! * [`udp`] — open-loop UDP injection (replay and tail-delay
//!   experiments; the offered load is then independent of scheduling);
//! * [`tcp`] — a compact TCP Reno (FCT and fairness experiments);
//! * [`header`] — the §3 ingress slack-initialization heuristics and the
//!   SJF/SRPT priority stamps;
//! * [`flow`] — flow descriptors and completion results.

#![forbid(unsafe_code)]

pub mod flow;
pub mod header;
pub mod tcp;
pub mod udp;

pub use flow::{ack_flow, data_flow, is_ack_flow, FlowDesc, FlowResult, ACK_FLOW_BIT};
pub use header::{HeaderStamper, PrioPolicy, SlackPolicy};
pub use tcp::{install_tcp, SharedResults, TcpConfig, TcpHost};
pub use udp::{inject_udp_flows, PacedFlows};
