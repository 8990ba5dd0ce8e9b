//! The process-wide interrupt flag stops an idle `serve` daemon. One test,
//! in a file (so a process) of its own: the flag is sticky and every
//! daemon in the process reads it.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use dramstack::serve::{ServeConfig, Server};
use dramstack::sim::{clear_interrupt, request_interrupt};

#[test]
fn interrupt_flag_alone_stops_an_idle_daemon() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || tx.send(server.serve()));

    // What the SIGTERM handler does. Nothing connects, so only the accept
    // loop's own bounded wait can notice it.
    request_interrupt();
    let stats = rx.recv_timeout(Duration::from_secs(1));
    clear_interrupt();
    assert_eq!(
        stats
            .expect("serve() returns within 1 s of the interrupt")
            .accepted,
        0
    );
}
