//! The load generator's side of the socket: pre-encoded requests over one
//! keep-alive connection per client thread.
//!
//! Requests are encoded once, before the measured window, in exactly the
//! framing `koios_net::client::KoiosClient` uses, so the generator spends
//! its share of the two cores on waiting, not on building strings — and the
//! very bytes that went over the wire are what the `net.http_parse` replay
//! parses again.

use koios_common::Json;
use koios_net::http::HttpResponse;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A reply took longer than this: the run fails instead of hanging.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The bytes of one HTTP/1.1 request with a JSON body.
pub fn request_bytes(method: &str, path: &str, body: &Json) -> Vec<u8> {
    let payload = body.encode();
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: koios\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n",
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one pre-encoded request and reads the whole reply.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<HttpResponse> {
        let stream = self.reader.get_mut();
        stream.write_all(request)?;
        stream.flush()?;
        HttpResponse::read_from(&mut self.reader)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// A reply body as JSON (`None` when it is not).
pub fn body_json(body: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(body).ok()?).ok()
}
