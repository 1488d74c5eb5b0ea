"""Replay request lines in-process through the front-end's Dispatcher.

The one replay loop of ``scripts/durable_breakdown.py`` and
``scripts/transcript.py``: :func:`build_dispatcher` builds the system
``repro serve FLAGS`` builds (no socket), and :func:`send` answers one
line through :meth:`~repro.service.frontend.Dispatcher.handle_line`,
re-sending a leased durable job until it reports ``done`` -- as the
benchmark's client does.  Nothing here imports ``bench/``: callers pass
the lines.
"""

from __future__ import annotations


def build_dispatcher(flags, workdir):
    """A Dispatcher over the ``ML4all`` that ``repro serve`` builds from
    ``flags`` (``--algorithms``, ``--cache``, ``--checkpoint``,
    ``--cache-size``); ``{dir}`` in a flag value names ``workdir``."""
    from repro.api import ML4all
    from repro.service.frontend import Dispatcher

    options = {flag: value.format(dir=workdir)
               for flag, value in zip(flags[::2], flags[1::2])}
    algorithms = options.get("--algorithms")
    system = ML4all(
        seed=7, cache_path=options.get("--cache"),
        checkpoint_path=options.get("--checkpoint"),
        **({"algorithms": tuple(algorithms.split(","))} if algorithms else {}),
    )
    system.service(cache_size=int(options.get("--cache-size", 256)))
    return Dispatcher(system)


def send(dispatcher, line, leased=False) -> list:
    """Answer ``line``, re-sent while it is a ``leased`` job that has not
    reported ``done``; returns every reply, in order.  A failed reply
    raises :class:`RuntimeError`."""
    replies = []
    while True:
        reply = dispatcher.handle_line(line)
        replies.append(reply)
        if not reply.get("ok"):
            raise RuntimeError(f"{line!r} failed: {reply}")
        if not leased or reply["job"]["status"] == "done":
            return replies
