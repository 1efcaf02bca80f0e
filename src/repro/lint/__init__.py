"""``repro.lint``: determinism & concurrency static analysis.

The repo's central correctness invariant — byte-identical campaign
fingerprints and bit-identical solves across every
(scheduler x placement x clock) runtime cell — is enforced dynamically
by the equivalence suites.  This package enforces the *hazard patterns*
behind most violations statically, at lint time:

========================  ==============================================
code                      what it catches
========================  ==============================================
``wall-clock``            reading the wall clock outside the sanctioned
                          measurement modules (simulated-clock code must
                          never observe real time)
``unseeded-rng``          RNG streams not derived from the campaign's
                          ``SeedSequence`` tree via
                          :func:`repro.faults.injector.derive_rng`
``unordered-iter``        iteration whose order the runtime does not
                          guarantee (sets, unsorted directory listings)
                          inside fingerprint-critical modules
``paged-reduction``       raw NumPy reductions in solver/kernel modules
                          that bypass the page-ordered ``paged_dot`` path
``lock-discipline``       bare ``.acquire()`` without ``with``/finally
``sanitizer-factory``     ``threading``/``queue`` primitives under
                          ``repro/`` not built by the ``repro.sanitize``
                          factories (invisible to the sanitizer)
========================  ==============================================

Findings are suppressible only via justified inline pragmas::

    t0 = time.perf_counter()  # repro-lint: allow[wall-clock] measured wall interval, not a clock decision

Run it with ``python -m repro.lint src/ tests/``; ``--explain CODE``
documents each rule.  A grant that suppresses nothing is itself a
finding (``unused-pragma``, which no pragma can suppress), so a stale
``allow[...]`` fails every run.

The other two layers: for iteration task graphs,
:func:`repro.runtime.graph.verify_graph` — a structural happens-before
check the test suite runs on every graph the CG planner can build; for
real threads, ``repro.sanitize`` (``REPRO_TSAN=1``) — data races and
lock-order cycles, which no static pass here looks for.
"""
