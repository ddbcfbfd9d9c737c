"""The row-based trace replay that `mssim.workload.replay_trace` replaced.

It groups `TraceRow`s per request, sorts each group by (hops_done,
timestamp) and finds every parent by scanning the stages one level up.
`test_workload.py` holds the columnar replay to it: both must build the same
trees from any forest and refuse the same malformed traces. It checks rows
itself rather than through the row rules of `mssim.workload`, so it shares
no checks with the code it tests.
"""

from typing import Sequence

from mssim.engine import SimTime
from mssim.errors import MalformedTrace
from mssim.model import ClientRequest, Stage
from mssim.workload import MAX_TIME, TraceRow


def _check_row(row: TraceRow) -> None:
    if (row.hops_done == 0) != (row.called_by is None):
        raise MalformedTrace(
            f"request {row.request_id}: hops_done {row.hops_done} with "
            f"called_by {row.called_by!r}"
        )
    if not 0 < row.exetime <= MAX_TIME:
        raise MalformedTrace(
            f"request {row.request_id}: exetime must be > 0 and <= {MAX_TIME} us"
        )


def replay_trace(rows: Sequence[TraceRow]) -> list[ClientRequest]:
    """Reconstruct ClientRequests from trace rows, one request at a time."""
    by_request: dict[int, list[TraceRow]] = {}
    for row in rows:
        _check_row(row)
        by_request.setdefault(row.request_id, []).append(row)

    requests = []
    for request_id in sorted(by_request):
        req_rows = sorted(by_request[request_id], key=lambda r: (r.hops_done, r.timestamp))
        stages_by_depth: dict[int, list[Stage]] = {}
        roots: list[Stage] = []
        # exec summed along the path from the root, per stage (rows come parents first)
        path_exec: dict[int, SimTime] = {}
        for row in req_rows:
            stage = Stage(request_id, row.called_ms, row.exetime, row.hops_done, row.called_by)
            if row.hops_done == 0:
                roots.append(stage)
                path_exec[id(stage)] = row.exetime
            else:
                if row.called_by == row.called_ms:
                    raise MalformedTrace(
                        f"request {request_id}: self-call edge at hops {row.hops_done}"
                    )
                parents = [
                    p
                    for p in stages_by_depth.get(row.hops_done - 1, [])
                    if p.target == row.called_by
                ]
                if not parents:
                    raise MalformedTrace(
                        f"request {request_id}: no parent for hops {row.hops_done} "
                        f"called_by {row.called_by}"
                    )
                if len(parents) > 1:
                    raise MalformedTrace(
                        f"request {request_id}: ambiguous parent for hops "
                        f"{row.hops_done} called_by {row.called_by}"
                    )
                parent = parents[0]
                if parent.children:
                    parent.children.append(stage)
                else:
                    parent.children = [stage]
                path_exec[id(stage)] = path_exec[id(parent)] + row.exetime
            stages_by_depth.setdefault(row.hops_done, []).append(stage)
        if not roots:
            raise MalformedTrace(f"request {request_id}: no depth-0 row")
        requests.append(
            ClientRequest(
                request_id=request_id,
                created_at=min(r.timestamp for r in req_rows),
                root_stages=roots,
                stages=len(req_rows),
                crit_exec=max(path_exec.values()),
            )
        )
    return requests
