//! A blocking gateway client: one request frame out, one response frame
//! in.
//!
//! Used by `gateway_loadgen`, the end-to-end benchmark's drivers and the
//! stress tests. The client is deliberately dumb — no retries, no
//! pooling — so callers control backoff policy themselves.

use crate::engine::SubmitSpec;
use crate::proto::{read_frame, write_frame, RecvError, Request, Response, WirePhase};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// An error talking to the gateway.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server's bytes did not decode.
    Frame(crate::proto::FrameError),
    /// The server closed the connection mid-exchange.
    Closed,
    /// The response type did not match the request.
    UnexpectedResponse(Response),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Closed => write!(f, "connection closed by gateway"),
            ClientError::UnexpectedResponse(r) => write!(f, "unexpected response {r:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Outcome of a submit round-trip.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SubmitReply {
    /// Admitted under this ticket.
    Accepted(u64),
    /// Shed; retry after this many milliseconds.
    Busy(u64),
    /// Typed rejection.
    Rejected(crate::proto::ErrorCode, String),
}

/// A blocking connection to a gateway.
pub struct GatewayClient {
    stream: TcpStream,
}

impl GatewayClient {
    /// Connects to `addr` (e.g. `127.0.0.1:7421`).
    pub fn connect(addr: &str) -> Result<GatewayClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(GatewayClient { stream })
    }

    /// Sets the read timeout for responses (`None` blocks forever).
    pub fn set_timeout(&self, t: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(t)?;
        Ok(())
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &req.encode())?;
        let body = match read_frame(&mut self.stream) {
            Ok(b) => b,
            Err(RecvError::Closed) => return Err(ClientError::Closed),
            Err(RecvError::Frame(e)) => return Err(ClientError::Frame(e)),
            Err(RecvError::Io(e)) => return Err(ClientError::Io(e)),
        };
        Response::decode(&body).map_err(ClientError::Frame)
    }

    /// Submits a catalog workflow.
    pub fn submit(
        &mut self,
        workflow: &str,
        scope: &str,
        urgent: bool,
        params: &[(String, String)],
    ) -> Result<SubmitReply, ClientError> {
        let req = Request::Submit {
            workflow: workflow.into(),
            scope: scope.into(),
            urgent,
            params: params.to_vec(),
        };
        match self.roundtrip(&req)? {
            Response::Accepted { ticket } => Ok(SubmitReply::Accepted(ticket)),
            Response::Busy { retry_after_ms } => Ok(SubmitReply::Busy(retry_after_ms)),
            Response::Error { code, message } => Ok(SubmitReply::Rejected(code, message)),
            other => Err(ClientError::UnexpectedResponse(other)),
        }
    }

    /// Pipelined submission: writes all `specs` as back-to-back SUBMIT
    /// frames (one syscall), then reads the same number of replies.
    ///
    /// Replies are returned in spec order — the reactor answers
    /// pipelined frames in request order — and among the accepted
    /// entries tickets ascend in spec order too, since the whole batch
    /// is admitted by one engine shard in one call. This is how the
    /// load generator reaches the wire at >10⁴ submissions/s: admission
    /// cost and syscalls amortize over the batch.
    pub fn submit_batch(&mut self, specs: &[SubmitSpec]) -> Result<Vec<SubmitReply>, ClientError> {
        let mut wire = Vec::with_capacity(specs.len() * 64);
        for spec in specs {
            let req = Request::Submit {
                workflow: spec.workflow.clone(),
                scope: spec.scope.clone(),
                urgent: spec.urgent,
                params: spec.params.clone(),
            };
            write_frame(&mut wire, &req.encode())?;
        }
        self.stream.write_all(&wire)?;
        let mut replies = Vec::with_capacity(specs.len());
        for _ in specs {
            let body = match read_frame(&mut self.stream) {
                Ok(b) => b,
                Err(RecvError::Closed) => return Err(ClientError::Closed),
                Err(RecvError::Frame(e)) => return Err(ClientError::Frame(e)),
                Err(RecvError::Io(e)) => return Err(ClientError::Io(e)),
            };
            replies.push(match Response::decode(&body).map_err(ClientError::Frame)? {
                Response::Accepted { ticket } => SubmitReply::Accepted(ticket),
                Response::Busy { retry_after_ms } => SubmitReply::Busy(retry_after_ms),
                Response::Error { code, message } => SubmitReply::Rejected(code, message),
                other => return Err(ClientError::UnexpectedResponse(other)),
            });
        }
        Ok(replies)
    }

    /// Polls a ticket's phase.
    pub fn status(&mut self, ticket: u64) -> Result<(WirePhase, String), ClientError> {
        match self.roundtrip(&Request::Status { ticket })? {
            Response::Status { phase, detail, .. } => Ok((phase, detail)),
            other => Err(ClientError::UnexpectedResponse(other)),
        }
    }

    /// Requests cancellation of a ticket; `Ok(true)` if it was still
    /// live.
    pub fn cancel(&mut self, ticket: u64) -> Result<bool, ClientError> {
        match self.roundtrip(&Request::Cancel { ticket })? {
            Response::Cancelled { ok, .. } => Ok(ok),
            other => Err(ClientError::UnexpectedResponse(other)),
        }
    }

    /// Fetches the catalog as `(name, description, read_only)` rows.
    pub fn list(&mut self) -> Result<Vec<(String, String, bool)>, ClientError> {
        match self.roundtrip(&Request::List)? {
            Response::Catalog { entries } => Ok(entries),
            other => Err(ClientError::UnexpectedResponse(other)),
        }
    }

    /// Fetches the gateway's metrics registry as JSON.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics { json } => Ok(json),
            other => Err(ClientError::UnexpectedResponse(other)),
        }
    }

    /// Asks the gateway to shut down; returns once `Bye` arrives.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(ClientError::UnexpectedResponse(other)),
        }
    }
}
