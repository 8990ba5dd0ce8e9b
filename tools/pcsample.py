#!/usr/bin/env python3
"""PC-sampling profiler for boxes without `perf`: python3 + binutils only.

    tools/pcsample.py [--hz 1000] [--top 25] [--callers N] -- target/release/dramstack-cli synth ...

Starts the command, attaches with PTRACE_SEIZE and, `--hz` times a second,
stops its main thread with PTRACE_INTERRUPT, reads the program counter and
lets it run again. At exit the sampled addresses are symbolised in one
`addr2line -a -f -i -C` batch (inlined frames included) and counted twice:
by crate and by function. A sample belongs to the innermost frame of its
inline chain whose source file is under `crates/<name>/src` or `src/` of
a workspace, so a `HashMap` probe inlined into `hierarchy.rs` counts for
`cpu`; a sample with no such frame (a libstd or libc function that was
not inlined) is counted under `libstd`, `liballoc`, `libcore`, `libc` or
`?`, and one outside the executable's mappings (vdso, shared libc) under
`outside exe`.

With `--callers N` the samples are counted a third time, by the outermost
N workspace frames of their inline chain, written innermost first:
`build_view::{{closure}} < build_view < tick`. The outermost frame is the
function that was really called, so this splits one big inlined function
(a controller's `tick`, the simulator's `step`) into the parts inlined
into it, which the by-function list cannot tell apart from its callers.

Only the main thread is sampled and only user-mode PCs are seen, which is
the simulator's case (one thread, no I/O in the drive loop). Build with
debug info (the release profile of this repository has it). x86-64 Linux.
"""

import argparse
import collections
import ctypes
import os
import re
import signal
import subprocess
import sys
import time

PTRACE_PEEKUSER = 3
PTRACE_CONT = 7
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
RIP_OFFSET = 16 * 8  # user_regs_struct.rip on x86-64
WALL = 0x40000000  # __WALL

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(request, pid, addr=0, data=0):
    ctypes.set_errno(0)
    value = libc.ptrace(request, pid, addr, data)
    errno = ctypes.get_errno()
    if value == -1 and errno != 0:
        raise OSError(errno, os.strerror(errno))
    return value


def sample(argv, hz):
    """Runs argv to completion; returns (exe path, its mappings, [pc, ...], exit code)."""
    child = subprocess.Popen(argv)
    pid = child.pid
    exe = os.readlink(f"/proc/{pid}/exe")
    ptrace(PTRACE_SEIZE, pid)
    maps = None
    pcs = []
    period = 1.0 / hz
    due = time.monotonic() + period
    status = None
    while True:
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        due += period
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            pass  # already stopped or gone; waitpid tells
        _, status = os.waitpid(pid, WALL)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            break
        if maps is None:
            maps = exe_maps(pid, exe)
        pcs.append(ptrace(PTRACE_PEEKUSER, pid, RIP_OFFSET) & (2**64 - 1))
        # Pass on a real signal the stop reports; group-stops and the
        # interrupt's own trap carry none.
        sig = os.WSTOPSIG(status)
        event = status >> 16
        deliver = sig if event == 0 and sig != signal.SIGTRAP else 0
        ptrace(PTRACE_CONT, pid, 0, deliver)
    return exe, maps or [], pcs, os.waitstatus_to_exitcode(status)


def exe_maps(pid, exe):
    """[(start, end, file offset)] of the executable's mappings."""
    out = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 6 and parts[5] == exe:
                start, end = (int(x, 16) for x in parts[0].split("-"))
                out.append((start, end, int(parts[2], 16)))
    return out


def load_segments(exe):
    """[(file offset, file size, vaddr)] of the ELF's LOAD segments."""
    text = subprocess.run(
        ["readelf", "-lW", exe], check=True, capture_output=True, text=True
    ).stdout
    segs = []
    for line in text.splitlines():
        m = re.match(r"\s*LOAD\s+(0x[0-9a-f]+)\s+(0x[0-9a-f]+)\s+0x[0-9a-f]+\s+(0x[0-9a-f]+)", line)
        if m:
            segs.append((int(m.group(1), 16), int(m.group(3), 16), int(m.group(2), 16)))
    return segs


def to_vaddr(pc, maps, segs):
    """The ELF virtual address of runtime address pc, or None outside the exe."""
    for start, end, offset in maps:
        if start <= pc < end:
            file_off = pc - start + offset
            for seg_off, seg_size, vaddr in segs:
                if seg_off <= file_off < seg_off + seg_size:
                    return file_off - seg_off + vaddr
    return None


def symbolise(exe, vaddrs):
    """{vaddr: [(function, file), ...]} innermost frame first."""
    if not vaddrs:
        return {}
    text = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
        input="".join(f"{a:#x}\n" for a in vaddrs),
        check=True,
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    frames = {}
    current = None
    i = 0
    while i < len(text):
        if text[i].startswith("0x") and ":" not in text[i]:
            current = frames.setdefault(int(text[i], 16), [])
            i += 1
        else:
            current.append((text[i], text[i + 1].rsplit(":", 1)[0]))
            i += 2
    return frames


def workspace_crate(path):
    """The workspace crate source file `path` belongs to, or None."""
    if any(d in path for d in ("/rustc/", "/library/", "/rust/deps/", "/.cargo/")):
        return None  # toolchain source inlined into a caller further out
    m = re.search(r"/(?:crates|vendor)/([^/]+)/src/", path)
    if m:
        return m.group(1)
    m = re.search(r"/(refbench|examples|tests)/", path)
    if m:
        return m.group(1)
    return "dramstack" if "/src/" in path else None


def bucket(frames):
    """(crate, function) a sample with this inline chain is counted under."""
    for function, path in frames:
        crate = workspace_crate(path)
        if crate:
            return crate, function
    function, path = frames[0] if frames else ("?", "?")
    m = re.search(r"/library/(std|core|alloc)/", path)
    if m:
        return "lib" + m.group(1), function
    if "/rust/deps/" in path:
        return "libstd", function  # hashbrown and friends, built into std
    if "libc" in path:
        return "libc", function
    return "?", function


def callers(frames, n):
    """The outermost n workspace frames of an inline chain, innermost first."""
    own = [function for function, path in frames if workspace_crate(path)]
    return " < ".join(own[-n:]) if own else "[%s] %s" % bucket(frames)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--hz", type=float, default=1000.0, help="samples per second (default 1000)")
    ap.add_argument("--top", type=int, default=25, help="functions to list (default 25)")
    ap.add_argument(
        "--callers",
        type=int,
        default=0,
        metavar="N",
        help="also count by the outermost N workspace frames of each inline chain",
    )
    ap.add_argument("command", nargs=argparse.REMAINDER, help="-- command to run")
    args = ap.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not argv:
        ap.error("no command given")

    exe, maps, pcs, code = sample(argv, args.hz)
    segs = load_segments(exe)
    vaddrs = [to_vaddr(pc, maps, segs) for pc in pcs]
    frames = symbolise(exe, sorted({v for v in vaddrs if v is not None}))

    crates = collections.Counter()
    functions = collections.Counter()
    chains = collections.Counter()
    for v in vaddrs:
        crate, function = bucket(frames.get(v, [])) if v is not None else ("outside exe", "?")
        crates[crate] += 1
        functions[(crate, function)] += 1
        if args.callers > 0:
            chains[callers(frames.get(v, []), args.callers) if v is not None else "outside exe"] += 1
    total = max(len(pcs), 1)
    print(f"{len(pcs)} samples at {args.hz:g} Hz of {' '.join(argv)} (exit {code})", file=sys.stderr)
    print("by crate:")
    for crate, n in crates.most_common():
        print(f"  {100 * n / total:5.1f} %  {n:6d}  {crate}")
    print(f"top {args.top} functions:")
    for (crate, function), n in functions.most_common(args.top):
        print(f"  {100 * n / total:5.1f} %  {n:6d}  [{crate}] {function}")
    if chains:
        print(f"top {args.top} chains of the outermost {args.callers} workspace frames:")
        for chain, n in chains.most_common(args.top):
            print(f"  {100 * n / total:5.1f} %  {n:6d}  {chain}")
    return code


if __name__ == "__main__":
    sys.exit(main())
