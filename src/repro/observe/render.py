"""Render a campaign report dict as text, markdown or JSON.

All three renderers consume the exact structure
:func:`~repro.observe.report.build_report` produces; the text form is
what ``repro report`` prints by default, markdown suits CI artifacts and
PR comments, JSON feeds downstream tooling.
"""

from __future__ import annotations

import json


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}ms"


def _pct(fraction: float) -> str:
    return f"{fraction * 100.0:.1f}%"


def _outcome_lines(report: dict) -> list[str]:
    lines = []
    for row in report["outcomes"]:
        ci = ""
        if row["ci_low"] is not None:
            ci = f"  [{_pct(row['ci_low'])}, {_pct(row['ci_high'])}]"
        lines.append(
            f"  {row['outcome']:<7s} {row['count']:>7d}  {_pct(row['share']):>6s}{ci}"
        )
    return lines


def render_text(report: dict) -> str:
    meta = report["meta"]
    lines: list[str] = []
    kernel = meta["kernel"] or "(unknown kernel)"
    lines.append(f"campaign report — {kernel}")
    lines.append(
        f"  injections={meta['n_injections']}  sim_runs={meta['n_sim_runs']}"
        f"  backends={','.join(meta['backends']) or '-'}"
        f"  fast-path={_pct(meta['fast_path_rate'])}"
    )
    if meta["suffix_instructions"]:
        lines.append(
            f"  suffix instructions executed: {meta['suffix_instructions']:,}"
        )
    if meta.get("effective_instructions"):
        lines.append(
            f"  effective instructions covered:"
            f" {meta['effective_instructions']:,}"
        )

    lines.append("")
    lines.append(f"outcomes (Wilson {_pct(meta['confidence'])} CI):")
    lines.extend(_outcome_lines(report))

    latency = report["latency"]
    if latency:
        lines.append("")
        lines.append(
            f"latency: mean={_ms(latency['mean_s'])} p50={_ms(latency['p50_s'])}"
            f" p90={_ms(latency['p90_s'])} p99={_ms(latency['p99_s'])}"
            f" max={_ms(latency['max_s'])}"
        )

    phases = report["phases"]
    if phases:
        lines.append("")
        lines.append("phase breakdown (per injection):")
        for row in phases["rows"]:
            lines.append(
                f"  {row['phase']:<19s} {_ms(row['mean_s']):>10s}"
                f"  {_pct(row['share']):>6s} of wall"
            )
        lines.append(
            f"  {'(unattributed)':<19s} "
            f"{_ms(phases['unattributed_s'] / max(1, meta['n_injections'])):>10s}"
        )

    tertiles = report["tertiles"]
    if tertiles:
        lines.append("")
        lines.append("latency by fault-site depth tertile:")
        for row in tertiles["rows"]:
            top = sorted(
                row["phase_shares"].items(), key=lambda kv: kv[1], reverse=True
            )[:2]
            mix = " ".join(f"{name}={_pct(share)}" for name, share in top)
            lines.append(
                f"  {row['tertile']:<8s} n={row['count']:<6d}"
                f" mean={_ms(row['mean_s'])} p99={_ms(row['p99_s'])}"
                + (f"  [{mix}]" if mix else "")
            )

    checkpoint = report["checkpoint"]
    if checkpoint:
        lines.append("")
        lines.append(
            f"checkpoints (interval {checkpoint['interval']}):"
            f" hit-rate={_pct(checkpoint['hit_rate'])}"
            f" (thread {checkpoint['thread_hits']}/{checkpoint['thread_hits'] + checkpoint['thread_misses']},"
            f" cta {checkpoint['cta_hits']}/{checkpoint['cta_hits'] + checkpoint['cta_misses']})"
        )
        lines.append(
            f"  skipped {checkpoint['skipped_instructions']:,.0f} golden instructions;"
            f" store {checkpoint['store_entries']:.0f} entries"
            f" / {checkpoint['store_bytes'] / (1 << 20):.1f} MiB"
            f" ({checkpoint['store_evicted']:.0f} evicted,"
            f" capture {checkpoint['capture_s']:.3f}s)"
        )

    compiled = report["compiled"]
    if compiled:
        lines.append("")
        lines.append(
            f"compiled backend: chain-cache hit-rate={_pct(compiled['hit_rate'])}"
            f" ({compiled['chain_hits']}/{compiled['chain_hits'] + compiled['chain_misses']})"
        )

    workers = report["workers"]
    if workers:
        lines.append("")
        header = f"workers (imbalance {workers['imbalance']:.2f}x"
        if workers.get("queue_wait_skew", 1.0) > 1.0:
            header += f", queue-wait skew {workers['queue_wait_skew']:.2f}x"
        lines.append(header + "):")
        for row in workers["rows"]:
            line = (
                f"  {row['worker']:<18s} injections={row['injections']:<7d}"
                f" busy={row['busy_s']:.3f}s"
            )
            if row.get("queue_wait_mean_s") is not None:
                line += f" wait={_ms(row['queue_wait_mean_s'])}"
            if row.get("checkpoint_bytes") is not None:
                line += (
                    f" ckpt={row['checkpoint_bytes'] / 1e6:.1f}MB"
                    f"/{row.get('checkpoint_entries', 0):.0f}"
                )
            lines.append(line)
        wait = workers["queue_wait"]
        if wait and wait.get("count"):
            lines.append(
                f"  chunk queue wait: mean={_ms(wait['mean'])}"
                f" max={_ms(wait['max'])} over {wait['count']} chunks"
            )

    stragglers = report["stragglers"]
    if stragglers:
        lines.append("")
        lines.append(
            f"stragglers (> p99 = {_ms(stragglers['threshold_s'])}):"
        )
        for row in stragglers["rows"]:
            top = sorted(row["phases"].items(), key=lambda kv: kv[1], reverse=True)[:2]
            mix = " ".join(f"{name}={_ms(seconds)}" for name, seconds in top)
            lines.append(
                f"  t{row['thread']}/i{row['dyn_index']}b{row['bit']}"
                f" {row['outcome']:<6s} {_ms(row['duration_s'])}"
                + (f"  [{mix}]" if mix else "")
            )

    funnel = report["funnel"]
    if funnel:
        lines.append("")
        lines.append("pruning funnel:")
        for row in funnel:
            lines.append(
                f"  {row['stage']:<17s} {row['sites_before']:>9,d} ->"
                f" {row['sites_after']:>9,d}  ({row['factor']:.1f}x)"
            )

    propagation = report.get("propagation")
    if propagation:
        lines.extend(_propagation_text_lines(propagation))
    return "\n".join(lines) + "\n"


def _propagation_text_lines(propagation: dict) -> list[str]:
    lines: list[str] = []
    pc_map = propagation.get("pc_map")
    if pc_map:
        lines.append("")
        lines.append(
            f"PC vulnerability map ({propagation['n_traced']} traced"
            f" injections over {pc_map['n_pcs']} static instructions):"
        )
        lines.append(
            "  pc        n    sdc%   div%   esc%   mean-mask"
        )
        for row in pc_map["rows"]:
            depth = row["mean_masking_depth"]
            mask = f"{depth:.1f}" if depth is not None else "-"
            lines.append(
                f"  {row['pc']:<7d} {row['n']:>4d}  {_pct(row['sdc_rate']):>6s}"
                f" {_pct(row['diverged_rate']):>6s}"
                f" {_pct(row['escaped_rate']):>6s}   {mask}"
            )

    masking = propagation.get("masking")
    if masking:
        lines.append("")
        lines.append("masking depth by fault model (dynamic instructions to drain):")
        for model, row in masking.items():
            buckets = " ".join(
                f"{label}:{count}" for label, count in row["buckets"].items()
            )
            lines.append(
                f"  {model:<4s} n={row['n']:<6d}"
                f" unmasked={row['unmasked']:<6d} {buckets}"
            )

    signatures = propagation.get("signatures")
    if signatures and signatures["n_sdc"]:
        lines.append("")
        lines.append(
            f"SDC propagation signatures ({signatures['n_signatures']}"
            f" distinct over {signatures['n_sdc']} SDCs):"
        )
        for row in signatures["rows"]:
            lines.append(
                f"  {row['count']:>5d}  {_pct(row['share']):>6s}"
                f"  {row['signature']}"
            )

    coherence = propagation.get("coherence")
    if coherence:
        lines.append("")
        lines.append(
            f"pruning-group coherence (overall agreement"
            f" {_pct(coherence['overall'])} across"
            f" {coherence['n_groups']} audited groups):"
        )
        for row in coherence["rows"]:
            lines.append(
                f"  {row['group']:<6s} members={row['members']:<3d}"
                f" sites={row['sites']:<3d} probes={row['probes']:<4d}"
                f" agreement={_pct(row['agreement'])}"
            )
            for site in row["disagreements"]:
                lines.append(
                    f"    i{site['dyn_index']}/b{site['bit']}:"
                    f" {' vs '.join(site['signatures'])}"
                )
    return lines


def render_markdown(report: dict) -> str:
    meta = report["meta"]
    kernel = meta["kernel"] or "(unknown kernel)"
    out: list[str] = [f"# Campaign report — {kernel}", ""]
    out.append(
        f"{meta['n_injections']} injections, {meta['n_sim_runs']} sim runs, "
        f"backends: {', '.join(meta['backends']) or '-'}, "
        f"fast-path rate {_pct(meta['fast_path_rate'])}."
    )

    out += ["", "## Outcomes", "", "| outcome | count | share | CI |", "|---|---|---|---|"]
    for row in report["outcomes"]:
        ci = (
            f"[{_pct(row['ci_low'])}, {_pct(row['ci_high'])}]"
            if row["ci_low"] is not None
            else "-"
        )
        out.append(
            f"| {row['outcome']} | {row['count']} | {_pct(row['share'])} | {ci} |"
        )

    latency = report["latency"]
    if latency:
        out += ["", "## Latency", ""]
        out.append("| mean | p50 | p90 | p99 | max |")
        out.append("|---|---|---|---|---|")
        out.append(
            f"| {_ms(latency['mean_s'])} | {_ms(latency['p50_s'])} |"
            f" {_ms(latency['p90_s'])} | {_ms(latency['p99_s'])} |"
            f" {_ms(latency['max_s'])} |"
        )

    phases = report["phases"]
    if phases:
        out += ["", "## Phases", "", "| phase | mean | share |", "|---|---|---|"]
        for row in phases["rows"]:
            out.append(
                f"| {row['phase']} | {_ms(row['mean_s'])} | {_pct(row['share'])} |"
            )

    tertiles = report["tertiles"]
    if tertiles:
        out += [
            "", "## Depth tertiles", "",
            "| tertile | n | mean | p99 |", "|---|---|---|---|",
        ]
        for row in tertiles["rows"]:
            out.append(
                f"| {row['tertile']} | {row['count']} | {_ms(row['mean_s'])} |"
                f" {_ms(row['p99_s'])} |"
            )

    checkpoint = report["checkpoint"]
    if checkpoint:
        out += ["", "## Checkpoints", ""]
        out.append(
            f"Interval {checkpoint['interval']}, hit rate "
            f"{_pct(checkpoint['hit_rate'])}, skipped "
            f"{checkpoint['skipped_instructions']:,.0f} golden instructions, "
            f"store {checkpoint['store_entries']:.0f} entries / "
            f"{checkpoint['store_bytes'] / (1 << 20):.1f} MiB."
        )

    compiled = report["compiled"]
    if compiled:
        out += ["", "## Compiled backend", ""]
        out.append(
            f"Chain-cache hit rate {_pct(compiled['hit_rate'])} "
            f"({compiled['chain_hits']} hits / {compiled['chain_misses']} misses)."
        )

    workers = report["workers"]
    if workers:
        title = f"## Workers (imbalance {workers['imbalance']:.2f}x"
        if workers.get("queue_wait_skew", 1.0) > 1.0:
            title += f", queue-wait skew {workers['queue_wait_skew']:.2f}x"
        out += [
            "", title + ")", "",
            "| worker | injections | busy | queue wait | ckpt store |",
            "|---|---|---|---|---|",
        ]
        for row in workers["rows"]:
            wait = row.get("queue_wait_mean_s")
            ckpt = row.get("checkpoint_bytes")
            out.append(
                f"| {row['worker']} | {row['injections']} | {row['busy_s']:.3f}s"
                f" | {_ms(wait) if wait is not None else '—'}"
                f" | {f'{ckpt / 1e6:.1f}MB' if ckpt is not None else '—'} |"
            )

    stragglers = report["stragglers"]
    if stragglers:
        out += [
            "", f"## Stragglers (> {_ms(stragglers['threshold_s'])})", "",
            "| site | outcome | duration |", "|---|---|---|",
        ]
        for row in stragglers["rows"]:
            out.append(
                f"| t{row['thread']}/i{row['dyn_index']}b{row['bit']} |"
                f" {row['outcome']} | {_ms(row['duration_s'])} |"
            )

    funnel = report["funnel"]
    if funnel:
        out += [
            "", "## Pruning funnel", "",
            "| stage | before | after | factor |", "|---|---|---|---|",
        ]
        for row in funnel:
            out.append(
                f"| {row['stage']} | {row['sites_before']:,} |"
                f" {row['sites_after']:,} | {row['factor']:.1f}x |"
            )

    propagation = report.get("propagation")
    if propagation:
        pc_map = propagation.get("pc_map")
        if pc_map:
            out += [
                "", "## PC vulnerability map", "",
                "| pc | n | sdc | diverged | escaped | mean mask depth |",
                "|---|---|---|---|---|---|",
            ]
            for row in pc_map["rows"]:
                depth = row["mean_masking_depth"]
                mask = f"{depth:.1f}" if depth is not None else "-"
                out.append(
                    f"| {row['pc']} | {row['n']} | {_pct(row['sdc_rate'])} |"
                    f" {_pct(row['diverged_rate'])} |"
                    f" {_pct(row['escaped_rate'])} | {mask} |"
                )
        masking = propagation.get("masking")
        if masking:
            out += [
                "", "## Masking depth by fault model", "",
                "| model | n | unmasked | depth buckets |", "|---|---|---|---|",
            ]
            for model, row in masking.items():
                buckets = " ".join(
                    f"{label}:{count}" for label, count in row["buckets"].items()
                )
                out.append(
                    f"| {model} | {row['n']} | {row['unmasked']} | {buckets} |"
                )
        signatures = propagation.get("signatures")
        if signatures and signatures["n_sdc"]:
            out += [
                "", "## SDC signatures", "",
                "| count | share | signature |", "|---|---|---|",
            ]
            for row in signatures["rows"]:
                out.append(
                    f"| {row['count']} | {_pct(row['share'])} |"
                    f" `{row['signature']}` |"
                )
        coherence = propagation.get("coherence")
        if coherence:
            out += [
                "",
                f"## Pruning-group coherence "
                f"({_pct(coherence['overall'])} agreement)",
                "",
                "| group | members | sites | probes | agreement |",
                "|---|---|---|---|---|",
            ]
            for row in coherence["rows"]:
                out.append(
                    f"| {row['group']} | {row['members']} | {row['sites']} |"
                    f" {row['probes']} | {_pct(row['agreement'])} |"
                )
    return "\n".join(out) + "\n"


def render_json(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True) + "\n"
