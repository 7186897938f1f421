//! Load generators for the line protocol: an open loop that sends on a
//! fixed schedule and times every request from when it was due, and a
//! closed loop that sends the next request when the previous reply lands.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Index of the request in the caller's plan.
    pub index: usize,
    /// Seconds from due time to the reply; `+∞` when it failed.
    pub latency: f64,
    /// Seconds the send started after its due time.
    pub lag: f64,
    /// The reply line without its newline; `None` when none arrived
    /// (refused connection, closed connection, timeout).
    pub reply: Option<String>,
}

impl Outcome {
    /// An `ok` reply arrived.
    pub fn ok(&self) -> bool {
        self.latency.is_finite()
    }
}

/// Due offsets of an open loop at a constant `rate` per second for
/// `seconds`: request `i` is due `i / rate` seconds after the start.
pub fn open_loop_due(rate: f64, seconds: f64) -> Vec<Duration> {
    let n = (rate * seconds).floor() as usize;
    (0..n).map(|i| Duration::from_secs_f64(i as f64 / rate)).collect()
}

/// A line-protocol connection that reports failures instead of erroring.
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    partial: Vec<u8>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Option<Self> {
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nodelay(true).ok()?;
        let writer = stream.try_clone().ok()?;
        Some(Self { writer, reader: BufReader::new(stream), partial: Vec::new() })
    }

    fn send(&self, line: &str) -> bool {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        (&self.writer).write_all(&bytes).is_ok()
    }

    /// Waits until `until` for one complete reply line.
    /// `Ok(None)` on timeout, `Err(())` when the connection is gone.
    fn recv_until(&mut self, until: Instant) -> Result<Option<String>, ()> {
        loop {
            let wait = until.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                return Ok(None);
            }
            self.reader.get_ref().set_read_timeout(Some(wait)).map_err(|_| ())?;
            match self.reader.read_until(b'\n', &mut self.partial) {
                Ok(0) => return Err(()),
                Ok(_) if self.partial.ends_with(b"\n") => {
                    let line = String::from_utf8_lossy(&self.partial).trim_end().to_string();
                    self.partial.clear();
                    return Ok(Some(line));
                }
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
    }
}

fn failed(index: usize, lag: f64) -> Outcome {
    Outcome { index, latency: f64::INFINITY, lag, reply: None }
}

fn replied(index: usize, due: Instant, lag: f64, line: String) -> Outcome {
    let latency = if line.starts_with("ok ") { due.elapsed().as_secs_f64() } else { f64::INFINITY };
    Outcome { index, latency, lag, reply: Some(line) }
}

/// Runs an open loop on one connection: request `k` of `plan` is written
/// at `start + plan[k].0` whether or not earlier replies have arrived, and
/// its latency runs from that due time, so a stall also charges the
/// requests that queued behind it. A reply missing `timeout` after its due
/// time fails every request still pending on the connection (replies are
/// ordered, so later ones can no longer be matched) and the next request
/// reconnects.
pub fn open_loop(
    addr: SocketAddr,
    start: Instant,
    plan: &[(Duration, usize, &str)],
    timeout: Duration,
) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(plan.len());
    let mut wire: Option<Wire> = None;
    let mut pending: VecDeque<(usize, Instant, f64)> = VecDeque::new();
    let mut next = 0;
    while next < plan.len() || !pending.is_empty() {
        while next < plan.len() && start + plan[next].0 <= Instant::now() {
            let (offset, index, line) = plan[next];
            let due = start + offset;
            let lag = due.elapsed().as_secs_f64();
            next += 1;
            if wire.is_none() {
                wire = Wire::connect(addr);
            }
            match wire.as_mut() {
                Some(w) if w.send(line) => pending.push_back((index, due, lag)),
                _ => {
                    wire = None;
                    out.extend(pending.drain(..).map(|(i, _, lag)| failed(i, lag)));
                    out.push(failed(index, lag));
                }
            }
        }
        let Some(&(_, oldest_due, _)) = pending.front() else {
            if let Some(&(offset, _, _)) = plan.get(next) {
                std::thread::sleep((start + offset).saturating_duration_since(Instant::now()));
            }
            continue;
        };
        let give_up = oldest_due + timeout;
        let until = plan.get(next).map_or(give_up, |&(offset, _, _)| give_up.min(start + offset));
        let w = wire.as_mut().expect("pending requests imply a live connection");
        match w.recv_until(until) {
            Ok(Some(line)) => {
                let (index, due, lag) = pending.pop_front().expect("a reply matches a request");
                out.push(replied(index, due, lag, line));
            }
            Ok(None) if Instant::now() < give_up => {}
            Ok(None) | Err(()) => {
                wire = None;
                out.extend(pending.drain(..).map(|(i, _, lag)| failed(i, lag)));
            }
        }
    }
    out
}

/// Runs a closed loop on one connection until `stop`: `next_line(k)` gives
/// the `k`-th request, sent as soon as the previous reply arrived (its due
/// time is its send time). A request that fails ends the loop when
/// `stop_on_failure` is set (a failed step of a dependent chain).
pub fn closed_loop(
    addr: SocketAddr,
    stop: Instant,
    timeout: Duration,
    stop_on_failure: bool,
    mut next_line: impl FnMut(usize) -> String,
) -> Vec<Outcome> {
    let mut out = Vec::new();
    let mut wire: Option<Wire> = None;
    let mut k = 0;
    while Instant::now() < stop {
        let line = next_line(k);
        let due = Instant::now();
        if wire.is_none() {
            wire = Wire::connect(addr);
        }
        let outcome = match wire.as_mut() {
            Some(w) if w.send(&line) => match w.recv_until(due + timeout) {
                Ok(Some(reply)) => replied(k, due, 0.0, reply),
                _ => failed(k, 0.0),
            },
            _ => failed(k, 0.0),
        };
        if outcome.reply.is_none() {
            wire = None;
        }
        let stop_now = stop_on_failure && !outcome.ok();
        out.push(outcome);
        k += 1;
        if stop_now {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that answers `ok <line>` and stalls `stall` before its
    /// first reply.
    fn stalling_server(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut first = true;
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                if writer.write_all(format!("ok {line}\n").as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_due_is_evenly_spaced() {
        let due = open_loop_due(20.0, 1.0);
        assert_eq!(due.len(), 20);
        assert_eq!(due[0], Duration::ZERO);
        assert_eq!(due[10], Duration::from_millis(500));
    }

    /// Requests queued behind a stall are charged from their due time,
    /// not from when the stalled connection finally answered them.
    #[test]
    fn latency_runs_from_due_time_through_a_stall() {
        let stall = Duration::from_millis(400);
        let (addr, server) = stalling_server(stall);
        let lines = ["a", "b", "c", "d", "e"];
        let plan: Vec<(Duration, usize, &str)> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| (Duration::from_millis(50 * i as u64), i, *l))
            .collect();
        let out = open_loop(addr, Instant::now(), &plan, Duration::from_secs(10));
        drop(server);
        assert_eq!(out.len(), 5);
        for (k, o) in out.iter().enumerate() {
            assert_eq!(o.index, k);
            assert_eq!(o.reply.as_deref(), Some(format!("ok {}", lines[k]).as_str()));
            // Sent on schedule, not after the previous reply.
            assert!(o.lag < 0.1, "request {k} sent {:.3} s late", o.lag);
            // Every request waited for the stall to clear: due at 50k ms,
            // answered at >= 400 ms.
            let floor = 0.4 - 0.05 * k as f64 - 0.02;
            assert!(o.latency >= floor, "request {k}: {:.3} s < {floor:.3} s", o.latency);
        }
    }

    #[test]
    fn refused_connection_counts_as_failed() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let plan = [(Duration::ZERO, 0, "ping"), (Duration::from_millis(10), 1, "ping")];
        let out = open_loop(addr, Instant::now(), &plan, Duration::from_secs(1));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|o| !o.ok() && o.reply.is_none()));
    }

    #[test]
    fn missing_reply_times_out_as_failed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let silent = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(500));
            drop(stream);
        });
        let plan = [(Duration::ZERO, 0, "ping")];
        let out = open_loop(addr, Instant::now(), &plan, Duration::from_millis(100));
        silent.join().unwrap();
        assert_eq!(out.len(), 1);
        assert!(!out[0].ok());
        assert!(out[0].latency.is_infinite());
    }

    #[test]
    fn closed_loop_replies_in_order_and_err_is_a_failure() {
        let (addr, _server) = stalling_server(Duration::ZERO);
        let out = closed_loop(
            addr,
            Instant::now() + Duration::from_millis(50),
            Duration::from_secs(1),
            true,
            |_| "x".to_string(),
        );
        assert!(!out.is_empty());
        assert!(out.iter().all(Outcome::ok));
        assert_eq!(out[0].reply.as_deref(), Some("ok x"));
        let err = replied(0, Instant::now(), 0.0, "err overloaded".to_string());
        assert!(!err.ok());
    }
}
