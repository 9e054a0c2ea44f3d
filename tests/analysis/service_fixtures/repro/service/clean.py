"""Clean fixture: the sanctioned service patterns, zero findings.

Blocking work routed through ``run_in_executor``, awaited coroutines,
and record-only wall-clock use.
"""

from __future__ import annotations

import asyncio
import time


class CleanService:
    async def handle(self) -> int:
        loop = asyncio.get_event_loop()
        payload = await loop.run_in_executor(None, self._read_disk)
        await asyncio.sleep(0)
        return len(payload)

    def _read_disk(self) -> bytes:
        with open("payload.bin", "rb") as fh:  # executor context
            return fh.read()

    def uptime(self, started: float) -> float:
        return time.time() - started  # record-only wall clock
