//! Job scripts: what one job allocates, uploads, launches and reads
//! back, with its inputs generated from the seed and its outputs checked
//! against the workloads' CPU references.

use mekong_kernel::{Dim3, Value};
use mekong_workloads::{blur, hotspot, matmul, nbody, spmv};

/// SplitMix64: the benchmark's only source of input data.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
    /// `len` floats `k * scale` with `k` uniform in `0..modulus`.
    fn floats(&mut self, len: usize, modulus: u64, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|_| self.below(modulus) as f32 * scale)
            .collect()
    }
}

/// The programs jobs run: the workloads crate's sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Prog {
    Hotspot,
    Blur,
    NBody,
    Spmv,
    Matmul,
}

impl Prog {
    pub fn source(self) -> &'static str {
        match self {
            Prog::Hotspot => hotspot::SOURCE,
            Prog::Blur => blur::SOURCE,
            Prog::NBody => nbody::SOURCE,
            Prog::Spmv => spmv::SOURCE,
            Prog::Matmul => matmul::SOURCE,
        }
    }
    pub fn name(self) -> &'static str {
        match self {
            Prog::Hotspot => "hotspot",
            Prog::Blur => "blur",
            Prog::NBody => "nbody",
            Prog::Spmv => "spmv",
            Prog::Matmul => "matmul",
        }
    }
}

/// A launch argument: a scalar, or the job's buffer at an index.
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    S(Value),
    B(usize),
}

#[derive(Debug, Clone)]
pub struct Launch {
    pub kernel: &'static str,
    pub grid: Dim3,
    pub block: Dim3,
    pub args: Vec<Arg>,
}

/// One job: a program run from runtime (or tenant) to read-back.
#[derive(Debug, Clone)]
pub struct Script {
    pub prog: Prog,
    pub n: usize,
    pub iters: usize,
    /// `(bytes, elem_size)` per buffer.
    pub bufs: Vec<(usize, usize)>,
    /// Uploads in order: buffer index and payload. `None` uploads without
    /// a payload (performance-mode runtimes keep no bytes).
    pub uploads: Vec<(usize, Option<Vec<u8>>)>,
    pub launches: Vec<Launch>,
    /// Buffers read back after the final synchronize.
    pub readbacks: Vec<usize>,
    /// The generated inputs, kept to compute the CPU reference.
    inputs: Inputs,
}

#[derive(Debug, Clone)]
enum Inputs {
    None,
    Hotspot {
        temp: Vec<f32>,
        power: Vec<f32>,
    },
    NBody {
        posm: Vec<f32>,
        vel: Vec<f32>,
    },
    Spmv {
        cols: Vec<i64>,
        vals: Vec<f32>,
        x: Vec<f32>,
    },
}

fn bytes_f32(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn f32s(b: &[u8]) -> Vec<f32> {
    b.chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

fn i(n: usize) -> Arg {
    Arg::S(Value::I64(n as i64))
}

impl Script {
    /// Build the job. With `payload` off, no input is generated and
    /// uploads carry no bytes (the job runs on performance-mode devices
    /// whose outputs are not checked).
    pub fn new(prog: Prog, n: usize, iters: usize, payload: bool, rng: &mut Rng) -> Script {
        let sq = n * n * 4;
        let mut s = Script {
            prog,
            n,
            iters,
            bufs: Vec::new(),
            uploads: Vec::new(),
            launches: Vec::new(),
            readbacks: Vec::new(),
            inputs: Inputs::None,
        };
        let launch = |kernel, (grid, block): (Dim3, Dim3), args: Vec<Arg>| Launch {
            kernel,
            grid,
            block,
            args,
        };
        match prog {
            Prog::Hotspot => {
                // Ping-pong between buffers 0 and 1; 2 holds the power map.
                s.bufs = vec![(sq, 4); 3];
                let (temp, power) = if payload {
                    (rng.floats(n * n, 173, 0.1), rng.floats(n * n, 97, 0.01))
                } else {
                    (Vec::new(), Vec::new())
                };
                s.uploads = vec![
                    (0, payload.then(|| bytes_f32(&temp))),
                    (1, payload.then(|| bytes_f32(&temp))),
                    (2, payload.then(|| bytes_f32(&power))),
                ];
                for it in 0..iters {
                    let (src, dst) = if it % 2 == 0 { (0, 1) } else { (1, 0) };
                    let args = vec![
                        i(n),
                        Arg::S(Value::F32(hotspot::CAP)),
                        Arg::B(src),
                        Arg::B(2),
                        Arg::B(dst),
                    ];
                    s.launches
                        .push(launch("hotspot", hotspot::geometry(n), args));
                }
                s.readbacks = vec![iters % 2];
                if payload {
                    s.inputs = Inputs::Hotspot { temp, power };
                }
            }
            Prog::Blur => {
                s.bufs = vec![(sq, 4); 2];
                let img = payload.then(|| bytes_f32(&rng.floats(n * n, 211, 0.05)));
                s.uploads = vec![(0, img.clone()), (1, img)];
                for _ in 0..iters {
                    for (k, a, b) in [("blur_row", 0, 1), ("blur_col", 1, 0)] {
                        s.launches.push(launch(
                            k,
                            blur::geometry(n),
                            vec![i(n), Arg::B(a), Arg::B(b)],
                        ));
                    }
                }
                s.readbacks = vec![0];
            }
            Prog::NBody => {
                // posm ping-pongs between 0 and 1; 2 is vel, updated in place.
                let b = n * 16;
                s.bufs = vec![(b, 4); 3];
                let (posm, vel) = if payload {
                    (rng.floats(n * 4, 157, 0.01), rng.floats(n * 4, 113, 0.001))
                } else {
                    (Vec::new(), Vec::new())
                };
                s.uploads = vec![
                    (0, payload.then(|| bytes_f32(&posm))),
                    (2, payload.then(|| bytes_f32(&vel))),
                ];
                for it in 0..iters {
                    let (src, dst) = if it % 2 == 0 { (0, 1) } else { (1, 0) };
                    let args = vec![
                        i(n),
                        Arg::S(Value::F32(nbody::DT)),
                        Arg::S(Value::F32(nbody::EPS)),
                        Arg::B(src),
                        Arg::B(2),
                        Arg::B(dst),
                    ];
                    s.launches.push(launch("nbody", nbody::geometry(n), args));
                }
                s.readbacks = vec![iters % 2, 2];
                if payload {
                    s.inputs = Inputs::NBody { posm, vel };
                }
            }
            Prog::Spmv => {
                let m = spmv::M;
                s.bufs = vec![(n * m * 8, 8), (n * m * 4, 4), (n * 4, 4), (n * 4, 4)];
                if payload {
                    // Banded columns, as the kernel's range annotation
                    // promises: cols[r][j] in [r - W, r + W], clamped.
                    let w = spmv::W;
                    let cols: Vec<i64> = (0..n * m)
                        .map(|e| {
                            let r = (e / m) as i64;
                            (r - w + rng.below(2 * w as u64 + 1) as i64).clamp(0, n as i64 - 1)
                        })
                        .collect();
                    let vals = rng.floats(n * m, 63, 0.125);
                    let x = rng.floats(n, 97, 0.25);
                    s.uploads = vec![
                        (0, Some(cols.iter().flat_map(|c| c.to_le_bytes()).collect())),
                        (1, Some(bytes_f32(&vals))),
                        (2, Some(bytes_f32(&x))),
                    ];
                    s.inputs = Inputs::Spmv { cols, vals, x };
                } else {
                    s.uploads = vec![(0, None), (1, None), (2, None)];
                }
                let args: Vec<Arg> = vec![
                    i(n),
                    i(m),
                    Arg::S(Value::I64(spmv::W)),
                    Arg::B(0),
                    Arg::B(1),
                    Arg::B(2),
                    Arg::B(3),
                ];
                for _ in 0..iters {
                    s.launches
                        .push(launch("spmv", spmv::geometry(n), args.clone()));
                }
                s.readbacks = vec![3];
            }
            Prog::Matmul => {
                s.bufs = vec![(sq, 4); 3];
                let a = payload.then(|| bytes_f32(&rng.floats(n * n, 89, 0.01)));
                let b = payload.then(|| bytes_f32(&rng.floats(n * n, 83, 0.01)));
                s.uploads = vec![(0, a), (1, b)];
                for _ in 0..iters {
                    let args = vec![i(n), Arg::B(0), Arg::B(1), Arg::B(2)];
                    s.launches.push(launch("matmul", matmul::geometry(n), args));
                }
                s.readbacks = vec![2];
            }
        }
        s
    }

    /// Operations the job issues: uploads, launches, one synchronize and
    /// the read-backs.
    pub fn ops(&self) -> usize {
        self.uploads.len() + self.launches.len() + 1 + self.readbacks.len()
    }

    /// Compare read-back bytes with the workload's CPU reference, within
    /// that workload's own tolerance. Jobs without generated inputs have
    /// no reference and pass.
    pub fn check(&self, outputs: &[Vec<u8>]) -> Result<(), String> {
        let close = |got: &[f32], want: &[f32], rel: f32| -> Result<(), String> {
            if got.len() != want.len() {
                return Err(format!("{}: output length {}", self.prog.name(), got.len()));
            }
            match got
                .iter()
                .zip(want)
                .position(|(g, w)| (g - w).abs() > rel * w.abs().max(1.0))
            {
                None => Ok(()),
                Some(at) => Err(format!(
                    "{} n={}: element {at} is {} but the CPU reference gives {}",
                    self.prog.name(),
                    self.n,
                    got[at],
                    want[at]
                )),
            }
        };
        let n = self.n;
        match &self.inputs {
            Inputs::None => Ok(()),
            Inputs::Hotspot { temp, power } => close(
                &f32s(&outputs[0]),
                &hotspot::cpu_reference(n, temp, power, self.iters),
                1e-3,
            ),
            Inputs::NBody { posm, vel } => {
                let (mut p, mut v) = (posm.clone(), vel.clone());
                nbody::cpu_reference(n, &mut p, &mut v, self.iters);
                close(&f32s(&outputs[0]), &p, 1e-2)?;
                close(&f32s(&outputs[1]), &v, 1e-2)
            }
            Inputs::Spmv { cols, vals, x } => {
                let want = bytes_f32(&spmv::cpu_reference(n, cols, vals, x));
                if outputs[0] == want {
                    Ok(())
                } else {
                    Err(format!("spmv n={n}: output differs from the CPU reference"))
                }
            }
        }
    }
}
