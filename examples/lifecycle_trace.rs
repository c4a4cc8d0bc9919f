//! Export a packet-lifecycle trace as JSON Lines: the web workload on a
//! k=4 fat-tree with the bounded lifecycle ring on, one line per
//! retained event (inject, enqueue, tx-start, deliver, drop). The ring
//! only observes; results are unchanged.
//!
//! ```sh
//! cargo run --release --example lifecycle_trace [-- FILE]
//! ```

use ups::core::WorkloadKind;
use ups::net::TraceLevel;
use ups::topo::fattree::{build, FatTreeConfig};
use ups::transport::{inject_udp_flows, HeaderStamper};

fn main() -> std::io::Result<()> {
    let path = std::env::args().nth(1);
    let path = path.as_deref().unwrap_or("target/lifecycle_trace.jsonl");
    let mut topo = build(&FatTreeConfig::for_k(4), TraceLevel::Off);
    let flows = WorkloadKind::Web.build(&topo, 0.7, ups::sim::Dur::from_millis(10), 1);
    topo.net.telemetry.enable_lifecycle(65_536);
    let routes = std::sync::Arc::clone(&topo.routes);
    let mut stamper = HeaderStamper::zero();
    inject_udp_flows(&mut topo.net, &routes, &flows, 1500, &mut stamper);
    topo.net.run_to_completion();
    let tel = &topo.net.telemetry;
    let ring = tel.lifecycle.as_ref().expect("enabled above");
    let (delivered, total, kept) = (tel.counters.delivered, ring.total(), ring.len());
    println!("{delivered} pkts delivered, {total} lifecycle events ({kept} retained)");
    std::fs::write(path, ring.to_jsonl())?;
    println!("wrote lifecycle trace {path}");
    Ok(())
}
