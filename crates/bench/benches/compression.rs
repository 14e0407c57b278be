//! Extension study: transfer compression (Fang, He & Luo VLDB'10 — the
//! approach the paper's related work contrasts with) combined with kernel
//! fusion.
//!
//! Four ways to run one 50% SELECT over compressible 20-bit keys:
//!
//! 1. plain — raw 4 B/element over PCIe, filter, gather, out;
//! 2. compressed — bit-packed transfer, decompress kernel to global
//!    memory, then the same SELECT;
//! 3. comp+fused — the decompress stage FUSES into the filter: packed
//!    bytes in, expanded values live only in registers (the paper's
//!    Fig. 7(c) benefit applied to the decompressor);
//! 4. comp+fused+fission — and pipelined over three streams.
//!
//! Compression attacks the same bottleneck as fusion/fission (PCIe), and
//! the three compose.

use kfusion_bench::{gbps, print_header, system, Table};
use kfusion_core::exec::{CPU_GATHER_BW, FISSION_STREAMS};
use kfusion_core::microbench::SelectChain;
use kfusion_prng::Rng;
use kfusion_relalg::compress::{best_for, decompress_kernel};
use kfusion_relalg::profiles;
use kfusion_vgpu::{Command, CommandClass, HostMemKind, LaunchConfig, Schedule};

fn main() {
    let _trace = kfusion_bench::trace_session("compression");
    print_header("Extension", "transfer compression x kernel fusion (1x SELECT, 50%)");
    let sys = system();
    let n: usize = 1 << 24;
    // 20-bit keys: realistically compressible dictionary-coded data.
    let mut rng = Rng::seed_from_u64(77);
    let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 20)).collect();
    let block = best_for(&keys);
    println!(
        "column: {} elements, scheme {}, {} bits/elem, wire {:.1} MB vs raw {:.1} MB ({:.2}x)\n",
        n,
        block.scheme,
        block.bits,
        block.wire_bytes() as f64 / 1e6,
        n as f64 * 4.0 / 1e6,
        block.ratio_vs_u32()
    );

    let chain = SelectChain::auto(n as u64, &[0.5]);
    let cards = chain.cardinalities().unwrap();
    let sel = cards[1] as f64 / cards[0] as f64;
    let row = 4.0f64;
    let out_bytes = (cards[1] as f64 * row) as u64;
    let pred = chain.predicate(0);
    let launch_n = |elems: u64| LaunchConfig::for_elements(elems.max(1), &sys.spec);

    let filter = profiles::select_filter("filter", &pred, chain.level, row, sel);
    let gather = profiles::select_gather("gather", row);

    // 1. plain
    let plain = Schedule::serial(vec![
        Command::h2d("in", CommandClass::InputOutput, (n as f64 * row) as u64, HostMemKind::Paged),
        Command::kernel(filter.clone(), launch_n(n as u64), n as u64),
        Command::kernel(gather.clone(), launch_n(cards[1]), cards[1]),
        Command::d2h("out", CommandClass::InputOutput, out_bytes, HostMemKind::Paged),
    ]);

    // 2. compressed transfer + separate decompress kernel
    let decomp = decompress_kernel(&block, row, false);
    let compressed = Schedule::serial(vec![
        Command::h2d(
            "in_packed",
            CommandClass::InputOutput,
            block.wire_bytes(),
            HostMemKind::Paged,
        ),
        Command::kernel(decomp, launch_n(n as u64), n as u64),
        Command::kernel(filter.clone(), launch_n(n as u64), n as u64),
        Command::kernel(gather.clone(), launch_n(cards[1]), cards[1]),
        Command::d2h("out", CommandClass::InputOutput, out_bytes, HostMemKind::Paged),
    ]);

    // 3. decompress fused into the filter: packed bytes in, registers out.
    let fused_decomp = decompress_kernel(&block, row, true);
    let fused_filter = profiles::select_filter("fused_dfilter", &pred, chain.level, 0.0, sel)
        .instr_per_elem(fused_decomp.instr_per_elem + filter.instr_per_elem)
        .bytes_read_per_elem(fused_decomp.bytes_read_per_elem);
    let comp_fused = Schedule::serial(vec![
        Command::h2d(
            "in_packed",
            CommandClass::InputOutput,
            block.wire_bytes(),
            HostMemKind::Paged,
        ),
        Command::kernel(fused_filter.clone(), launch_n(n as u64), n as u64),
        Command::kernel(gather.clone(), launch_n(cards[1]), cards[1]),
        Command::d2h("out", CommandClass::InputOutput, out_bytes, HostMemKind::Paged),
    ]);

    // 4. ...and fissioned over three streams.
    let segments = 8u64;
    let mut pipe = Schedule::new();
    for _ in 0..FISSION_STREAMS {
        pipe.add_stream();
    }
    let host = pipe.add_stream();
    for s in 0..segments {
        let st = (s % FISSION_STREAMS as u64) as usize;
        let seg_n = n as u64 / segments;
        let seg_out = cards[1] / segments;
        pipe.push(
            st,
            Command::h2d(
                format!("in_packed[{s}]"),
                CommandClass::InputOutput,
                block.wire_bytes() / segments,
                HostMemKind::Pinned,
            ),
        );
        let mut f = fused_filter.clone();
        f.name = format!("fused_dfilter[{s}]");
        pipe.push(st, Command::kernel(f, launch_n(seg_n), seg_n));
        let mut g = gather.clone();
        g.name = format!("gather[{s}]");
        pipe.push(st, Command::kernel(g, launch_n(seg_out), seg_out));
        pipe.push(
            st,
            Command::d2h(
                format!("out[{s}]"),
                CommandClass::InputOutput,
                out_bytes / segments,
                HostMemKind::Pinned,
            ),
        );
        let ev = kfusion_vgpu::des::EventId(s as u32);
        pipe.push(st, Command::record(ev));
        pipe.push(host, Command::wait(ev));
        pipe.push(
            host,
            Command::host_work(
                format!("cpu_gather[{s}]"),
                (out_bytes / segments) as f64 / CPU_GATHER_BW,
            ),
        );
    }

    let mut t = Table::new(["method", "throughput GB/s", "vs plain"]);
    let base = sys.simulate(&plain).unwrap().total();
    for (name, sched) in [
        ("plain", plain),
        ("compressed", compressed),
        ("compressed+fused", comp_fused),
        ("compressed+fused+fission", pipe),
    ] {
        let total = sys.simulate(&sched).unwrap().total();
        t.row([
            name.to_string(),
            gbps(n as f64 * row / total / 1e9),
            format!("{:.2}x", base / total),
        ]);
    }
    t.print();
    println!("compression shrinks the PCIe term; fusing the decompressor removes");
    println!("its global-memory round trip; fission hides what transfer remains.");
}
