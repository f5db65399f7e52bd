//! Connection lifecycle: a tier that has served many short-lived
//! connections holds no descriptors for the ones that closed.
//!
//! This binary holds exactly one test, so no sibling test opens descriptors
//! while it counts `/proc/self/fd`.

#![cfg(target_os = "linux")]

use pc_service::protocol::{Request, Response};
use pc_service::router::{self, RouterConfig};
use pc_service::server::{self, ServerConfig};
use pc_service::ServiceClient;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn ping_and_close(addr: SocketAddr) {
    let mut client = ServiceClient::connect(addr).unwrap();
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
}

#[test]
fn closed_connections_release_their_descriptors() {
    let replica = server::start(ServerConfig::default()).unwrap();
    let rt = router::start(RouterConfig {
        replicas: vec![replica.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .unwrap();
    // One round trip each so both tiers are fully up before the baseline.
    ping_and_close(replica.local_addr());
    ping_and_close(rt.local_addr());
    let baseline = open_fds();

    for addr in [replica.local_addr(), rt.local_addr()] {
        for _ in 0..200 {
            ping_and_close(addr);
        }
    }

    let deadline = Instant::now() + Duration::from_secs(2);
    let mut now = open_fds();
    while now > baseline + 16 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now = open_fds();
    }
    assert!(
        now <= baseline + 16,
        "400 closed connections left {now} descriptors open against a baseline of {baseline}"
    );

    rt.shutdown_and_wait().unwrap();
    replica.shutdown_and_wait().unwrap();
}
