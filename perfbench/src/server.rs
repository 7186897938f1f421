//! Launching `emst-cli` processes and talking to a running server.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn vm_hwm_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Kills and reaps `child` if it is still running.
fn reap(child: &mut Child) {
    if matches!(child.try_wait(), Ok(None)) {
        let _ = child.kill();
    }
    let _ = child.wait();
}

/// One `emst-cli emst` job: wall seconds from spawn to exit, and the
/// highest `VmHWM` seen while it ran (polled, so growth in its last
/// milliseconds can be missed).
pub struct Job {
    pub secs: f64,
    pub peak_rss_mib: f64,
    pub success: bool,
}

/// Runs `emst-cli emst --input <csv> --dim 3 --output <out>` to completion.
pub fn run_batch_job(cli: &Path, input: &Path, output: &Path) -> std::io::Result<Job> {
    let start = Instant::now();
    let mut child = Command::new(cli)
        .args(["emst", "--input"])
        .arg(input)
        .args(["--dim", "3", "--output"])
        .arg(output)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id();
    let mut peak = 0.0f64;
    let status = loop {
        if let Some(status) = child.try_wait()? {
            break status;
        }
        if let Some(mib) = vm_hwm_mib(pid) {
            peak = peak.max(mib);
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    Ok(Job { secs: start.elapsed().as_secs_f64(), peak_rss_mib: peak, success: status.success() })
}

/// How to launch a server.
pub struct ServeSpec<'a> {
    pub cli: &'a Path,
    pub input: &'a Path,
    pub shards: usize,
    pub max_resident: usize,
    pub net_workers: usize,
    pub spill_dir: PathBuf,
}

/// A running `emst-cli serve --listen` process, stopped on drop.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Held open so the server's own stdout writes never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Seconds from spawn to the first `ok` reply of an `emst` request.
    pub setup_s: f64,
}

impl Server {
    /// Launches the server and waits for its first `ok emst` reply.
    ///
    /// The server runs the Serial backend: with one net worker per core,
    /// requests already fill the cores, and the Threads backend would add
    /// thread spawns and joins to every kernel of every request, which made
    /// serving latencies swing by a third with the host's scheduling noise.
    pub fn start(spec: &ServeSpec<'_>, timeout: Duration) -> Result<Self, String> {
        let start = Instant::now();
        std::fs::create_dir_all(&spec.spill_dir).map_err(|e| e.to_string())?;
        let mut child = Command::new(spec.cli)
            .args(["serve", "--backend", "serial", "--input"])
            .arg(spec.input)
            .args(["--dim", "3", "--shards", &spec.shards.to_string()])
            .args(["--max-resident", &spec.max_resident.to_string()])
            .args(["--listen", "127.0.0.1:0", "--net-workers", &spec.net_workers.to_string()])
            .arg("--spill-dir")
            .arg(&spec.spill_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot launch {}: {e}", spec.cli.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdin,
            _stdout: stdout,
            addr: ([127, 0, 0, 1], 0).into(),
            setup_s: 0.0,
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's address: {e}"))?;
        server.addr = line
            .strip_prefix("listening ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or(format!("server did not report its address (got {line:?})"))?;
        let mut conn = Conn::open(server.addr, timeout)?;
        let reply = conn.request("emst")?;
        if !reply.starts_with("ok emst ") {
            return Err(format!("first emst failed: {reply}"));
        }
        server.setup_s = start.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set of the server so far, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        vm_hwm_mib(self.pid()).unwrap_or(f64::NAN)
    }

    /// Graceful stop: `quit` on stdin drains the listener; a server that
    /// has not exited within ten seconds is killed. Always reaped.
    fn shutdown(&mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"quit\n");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if !matches!(self.child.try_wait(), Ok(None)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        reap(&mut self.child);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A synchronous request/reply connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr, timeout: Duration) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Self { writer, reader: BufReader::new(stream) })
    }

    /// Sends one line and returns the reply line without its newline.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("reply: {e}")),
        }
    }
}
