"""Resource-timeline timing model for flash operations.

Each plane and each channel carries a "next free" timeline.  An
operation requested at time ``t`` starts when both the issuing request
and the resources it needs are ready; the timekeeper advances the
timelines and returns the completion time.  Operations on distinct
planes/channels overlap freely — this is exactly the plane-level and
channel-level parallelism of Section II.B:

* ``read_page``   — plane busy for the array sense (25 us), then the
  channel for command + data-out transfer.  The plane's data register is
  held until the transfer drains.
* ``program_page`` — channel for command + data-in transfer, then the
  plane for the program (200 us).
* ``erase_block`` — plane only (command cycle on the channel).
* ``copy_back``   — plane only, sense + program back-to-back, **no
  channel time** (Fig. 3).  Concurrent copy-backs on different planes
  overlap completely.
* ``inter_plane_copy`` — the traditional 4-step path of Fig. 2: read +
  transfer out + transfer in + program, occupying the channel twice.

Busy time has one definition: a plane is busy from when its register or
array is first held until it is released, and a channel while it carries
a command or a transfer.  A read holds the plane from ``sense_start``, a
copy-back from ``op_start`` and an erase from ``erase_start``; a program
(and the program half of ``inter_plane_copy``) holds the register from
its data-in transfer, but no earlier than the previous op released the
plane, so ``max(xfer_start, previous plane_free)``.  Every op starts its
hold at or after the plane's previous release, so a plane's
``plane_busy_us`` is the length of the union of its hold intervals and
never exceeds the makespan.
"""

from __future__ import annotations

from repro.flash.counters import FlashCounters
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.obs.tracebus import BUS


class FlashTimekeeper:
    """Tracks when each plane / channel becomes free and prices operations.

    A die's serial I/O bus (Fig. 1b) is not a resource of its own: every
    die hangs off one channel and a transfer holds bus and channel for
    the same interval, so the channel timeline already serialises it.

    The per-page operations are straight-line code (no helper calls):
    they run several times per simulated host page.  ``b if b > a else
    a`` is ``max(a, b)`` without the call.
    """

    def __init__(self, geometry: SSDGeometry, timing: TimingParams):
        self.geometry = geometry
        self.timing = timing
        # Plain lists: one scalar max/store per op, no boxed numpy floats.
        # Python floats and numpy float64 share IEEE-double arithmetic,
        # so completion times are bit-identical either way.
        self.plane_free = [0.0] * geometry.num_planes
        self.channel_free = [0.0] * geometry.channels
        self.counters = FlashCounters(geometry.num_planes, geometry.channels)
        # Pure functions of the frozen geometry / timing parameters.
        self._plane_channel = [
            geometry.plane_to_channel(plane) for plane in range(geometry.num_planes)
        ]
        self._page_xfer = timing.page_transfer_us(geometry.page_size)
        self._read_us = timing.page_read_us
        self._program_us = timing.page_program_us
        self._copy_back_us = timing.copy_back_us()
        # TraceBus track names, read only behind ``if BUS.enabled``.
        self._plane_track = [f"plane:{plane}" for plane in range(geometry.num_planes)]
        self._channel_track = [f"channel:{channel}" for channel in range(geometry.channels)]

    # ---- operations --------------------------------------------------------

    def read_page(self, plane: int, start: float) -> float:
        """Sense a page into the plane register and stream it to the controller."""
        plane_free = self.plane_free
        pf = plane_free[plane]
        sense_start = pf if pf > start else start
        sense_end = sense_start + self._read_us
        channel = self._plane_channel[plane]
        channel_free = self.channel_free
        cf = channel_free[channel]
        xfer_start = cf if cf > sense_end else sense_end
        end = xfer_start + self._page_xfer
        # Register holds the data until the transfer drains.
        plane_free[plane] = end
        channel_free[channel] = end
        counters = self.counters
        counters.reads += 1
        counters.channel_busy_us[channel] += end - xfer_start
        counters.plane_ops[plane] += 1
        counters.plane_busy_us[plane] += end - sense_start
        if BUS.enabled:
            ids = {"plane": plane, "channel": channel}
            BUS.emit("flash", "read", sense_start, end - sense_start, ids,
                     self._plane_track[plane])
            BUS.emit("flash", "xfer_out", xfer_start, end - xfer_start, ids,
                     self._channel_track[channel])
        return end

    def program_page(self, plane: int, start: float) -> float:
        """Stream a page to the plane register and program it."""
        channel = self._plane_channel[plane]
        channel_free = self.channel_free
        cf = channel_free[channel]
        xfer_start = cf if cf > start else start
        xfer_end = xfer_start + self._page_xfer
        channel_free[channel] = xfer_end
        plane_free = self.plane_free
        pf = plane_free[plane]
        prog_start = pf if pf > xfer_end else xfer_end
        end = prog_start + self._program_us
        plane_free[plane] = end
        counters = self.counters
        counters.programs += 1
        counters.channel_busy_us[channel] += xfer_end - xfer_start
        counters.plane_ops[plane] += 1
        counters.plane_busy_us[plane] += end - (pf if pf > xfer_start else xfer_start)
        if BUS.enabled:
            ids = {"plane": plane, "channel": channel}
            BUS.emit("flash", "program", prog_start, end - prog_start, ids,
                     self._plane_track[plane])
            BUS.emit("flash", "xfer_in", xfer_start, xfer_end - xfer_start, ids,
                     self._channel_track[channel])
        return end

    def erase_block(self, plane: int, start: float) -> float:
        """Erase a block on a plane (channel used only for the command cycle)."""
        channel = self._plane_channel[plane]
        cmd_start = max(start, self.channel_free[channel])
        cmd_end = cmd_start + self.timing.cmd_addr_us
        self.channel_free[channel] = cmd_end
        erase_start = max(cmd_end, self.plane_free[plane])
        end = erase_start + self.timing.block_erase_us
        self.plane_free[plane] = end
        counters = self.counters
        counters.erases += 1
        counters.channel_busy_us[channel] += cmd_end - cmd_start
        counters.plane_ops[plane] += 1
        counters.plane_busy_us[plane] += end - erase_start
        if BUS.enabled:
            ids = {"plane": plane, "channel": channel}
            BUS.emit("flash", "erase", erase_start, end - erase_start, ids,
                     self._plane_track[plane])
        return end

    def copy_back(self, plane: int, start: float) -> float:
        """Intra-plane copy-back: read + program, zero channel occupancy."""
        plane_free = self.plane_free
        pf = plane_free[plane]
        op_start = pf if pf > start else start
        end = op_start + self._copy_back_us
        plane_free[plane] = end
        counters = self.counters
        counters.copybacks += 1
        counters.plane_ops[plane] += 1
        counters.plane_busy_us[plane] += end - op_start
        if BUS.enabled:
            BUS.emit("flash", "copy_back", op_start, end - op_start,
                     {"plane": plane}, self._plane_track[plane])
        return end

    def inter_plane_copy(self, src_plane: int, dst_plane: int, start: float) -> float:
        """Traditional copy through the controller buffer (Fig. 2).

        ``program_page(dst_plane, read_page(src_plane, start))`` plus the
        composite tally, as one body: the same arithmetic, counters and
        events in the same order, one call per relocated page instead of
        three.
        """
        plane_free = self.plane_free
        channel_free = self.channel_free
        page_xfer = self._page_xfer
        counters = self.counters
        channel_busy_us = counters.channel_busy_us
        plane_ops = counters.plane_ops
        plane_busy_us = counters.plane_busy_us
        # read_page(src_plane, start)
        pf = plane_free[src_plane]
        sense_start = pf if pf > start else start
        sense_end = sense_start + self._read_us
        src_channel = self._plane_channel[src_plane]
        cf = channel_free[src_channel]
        out_start = cf if cf > sense_end else sense_end
        after_read = out_start + page_xfer
        plane_free[src_plane] = after_read
        channel_free[src_channel] = after_read
        counters.reads += 1
        channel_busy_us[src_channel] += after_read - out_start
        plane_ops[src_plane] += 1
        plane_busy_us[src_plane] += after_read - sense_start
        if BUS.enabled:
            ids = {"plane": src_plane, "channel": src_channel}
            BUS.emit("flash", "read", sense_start, after_read - sense_start, ids,
                     self._plane_track[src_plane])
            BUS.emit("flash", "xfer_out", out_start, after_read - out_start, ids,
                     self._channel_track[src_channel])
        # program_page(dst_plane, after_read)
        dst_channel = self._plane_channel[dst_plane]
        cf = channel_free[dst_channel]
        in_start = cf if cf > after_read else after_read
        in_end = in_start + page_xfer
        channel_free[dst_channel] = in_end
        pf = plane_free[dst_plane]
        prog_start = pf if pf > in_end else in_end
        end = prog_start + self._program_us
        plane_free[dst_plane] = end
        counters.programs += 1
        channel_busy_us[dst_channel] += in_end - in_start
        plane_ops[dst_plane] += 1
        plane_busy_us[dst_plane] += end - (pf if pf > in_start else in_start)
        if BUS.enabled:
            ids = {"plane": dst_plane, "channel": dst_channel}
            BUS.emit("flash", "program", prog_start, end - prog_start, ids,
                     self._plane_track[dst_plane])
            BUS.emit("flash", "xfer_in", in_start, in_end - in_start, ids,
                     self._channel_track[dst_channel])
        counters.interplane_copies += 1
        if BUS.enabled:
            BUS.emit("flash", "inter_plane_copy", start, 0.0,
                     {"src_plane": src_plane, "dst_plane": dst_plane}, None, "i")
        return end

    def read_pages(self, planes, start: float) -> list:
        """Price a read on each plane of ``planes`` (all issued at
        ``start``); returns the per-operation completion times."""
        return [self.read_page(plane, start) for plane in planes]

    def program_pages(self, planes, start: float) -> list:
        """Price a program on each plane of ``planes`` (all issued at
        ``start``); returns the per-operation completion times."""
        return [self.program_page(plane, start) for plane in planes]

    # ---- introspection -------------------------------------------------------

    def quiesce_time(self) -> float:
        """Time at which every resource is idle."""
        return max(max(self.plane_free), max(self.channel_free))

    def reset_measurements(self) -> None:
        """Zero timelines and counters (after preconditioning a device)."""
        self.plane_free[:] = [0.0] * len(self.plane_free)
        self.channel_free[:] = [0.0] * len(self.channel_free)
        # In-place reset keeps references (samplers, exporters) valid.
        self.counters.reset()
        if BUS.enabled:
            # Occupancy checkers must drop busy intervals from before
            # the reset or every post-preconditioning op looks like an
            # overlap with preconditioning history.
            BUS.emit("flash", "timeline_reset", 0.0, 0.0, {}, None, "i")
