//! Where one request ends and whether the connection outlives it, checked
//! on the wire against the reactor:
//!
//! - an HTTP/1.0 request without `Connection: keep-alive` gets a
//!   `Connection: close` response and the server closes the socket;
//!   with `keep-alive` the connection carries a second request;
//! - a request that declares `Transfer-Encoding` is answered 400 and the
//!   connection closes, so its chunk bytes are never served as a second
//!   request.
//!
//! Every read has a timeout shorter than the reactor's idle sweep, so a
//! connection left open fails the test instead of closing late.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cpssec_attackdb::seed::seed_corpus;
use cpssec_server::load::{read_response, WireResponse};
use cpssec_server::{AppState, Server};

struct TestServer {
    addr: SocketAddr,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start() -> TestServer {
        // `run` installs the process-wide panic hook: a failing assert must
        // write its flight dump outside the source tree.
        std::env::set_var("CPSSEC_FLIGHT_DIR", std::env::temp_dir());
        let server = Server::bind("127.0.0.1:0", 2, AppState::new(seed_corpus())).expect("bind");
        let addr = server.local_addr().expect("addr");
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        TestServer {
            addr,
            flag,
            handle: Some(handle),
        }
    }

    /// A connection whose reads give up well before the idle sweep.
    fn connect(&self) -> BufReader<TcpStream> {
        let stream = TcpStream::connect(self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        BufReader::new(stream)
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn exchange(conn: &mut BufReader<TcpStream>, raw: &[u8]) -> WireResponse {
    conn.get_mut().write_all(raw).expect("send");
    read_response(conn).expect("response")
}

/// Asserts the server closed the connection: the next read is EOF, not
/// more bytes and not a timeout.
fn assert_closed(conn: &mut BufReader<TcpStream>) {
    match conn.fill_buf() {
        Ok(rest) => assert!(rest.is_empty(), "bytes after the response: {rest:?}"),
        Err(e) => panic!("the connection was left open ({e})"),
    }
}

#[test]
fn http_1_0_closes_after_the_response() {
    let server = TestServer::start();
    let mut conn = server.connect();
    let response = exchange(&mut conn, b"GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("close"));
    assert_closed(&mut conn);
}

#[test]
fn http_1_0_keep_alive_carries_a_second_request() {
    let server = TestServer::start();
    let mut conn = server.connect();
    let request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
    let first = exchange(&mut conn, request);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = exchange(&mut conn, request);
    assert_eq!(second.status, 200);
}

#[test]
fn transfer_encoding_is_refused_and_its_body_never_served() {
    let server = TestServer::start();
    let mut conn = server.connect();
    let response = exchange(
        &mut conn,
        b"POST /models HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
          1c\r\nGET /healthz HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
    );
    assert_eq!(response.status, 400);
    assert_eq!(response.header("connection"), Some("close"));
    assert!(
        String::from_utf8_lossy(&response.body).contains("transfer-encoding"),
        "{:?}",
        String::from_utf8_lossy(&response.body)
    );
    assert_closed(&mut conn);
}
