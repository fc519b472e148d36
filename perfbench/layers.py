"""Per-layer metrics of one traced sample.

The layers are the mdsforge modules; `rings` is split into its two towers
and the series types used by the d4 expansion.  Counts are exact and repeat
run to run; times are seconds of the traced run.
"""

from __future__ import annotations

from tracer import Tracer, install

# What is left of `rings` (tower_eval, tower_float: numeric rendering for
# reports) falls in `rings.render`, which is traced but not reported.
RINGS_GROUPS = {
    "QuadValue": "quad",
    "QuarticValue": "quartic", "_Gauss": "quartic", "rho_value": "quartic",
    "rho_theta_prime": "quartic",
    "ParamPoly": "series", "MultiPoly": "series", "RationalFunction": "series",
    "TruncSeries": "series", "expand": "series", "rat_equal": "series",
}


def layer_of(name):
    """'rings.QuadValue.__mul__' -> 'rings.quad'; 'fq.pmod' -> 'fq'."""
    module, rest = name.split(".", 1)
    if module != "rings":
        return module
    return "rings." + RINGS_GROUPS.get(rest.split(".", 1)[0], "render")


class LayerTrace:
    """Installs the tracer plus two counters measured at layer boundaries:
    conductors summed by `moments.moment_sum` and buckets compared by
    `mds.compare_routes`."""

    def __init__(self, package):
        self.package = package
        self.tracer = Tracer()
        install(self.tracer, package)
        self.conductors = 0
        self.buckets = 0
        self._factor_cache_start = len(package.fq._factor_cache)
        self._cache_start = {name: stat.cached.cache_info()
                             for name, stat in self.tracer.stats.items() if stat.cached}
        self._hook_moment_sum()
        self._hook_compare_routes()

    def _hook_moment_sum(self):
        moments = self.package.moments
        traced = moments.moment_sum
        lpoly = self.tracer.stats["lseries.l_polynomial"]

        def moment_sum(*args, **kwargs):
            before = lpoly.calls
            try:
                return traced(*args, **kwargs)
            finally:
                self.conductors += lpoly.calls - before
        moments.moment_sum = moment_sum

    def _hook_compare_routes(self):
        mds = self.package.mds
        traced = mds.compare_routes

        def compare_routes(*args, **kwargs):
            rep = traced(*args, **kwargs)
            self.buckets += rep["buckets"]
            return rep
        mds.compare_routes = compare_routes

    # -- readout ---------------------------------------------------------------

    def _cache(self, name):
        now = self.tracer.stats[name].cached.cache_info()
        start = self._cache_start[name]
        return now.hits - start.hits, now.misses - start.misses

    def metrics(self):
        """name -> (value, unit) for every per-layer metric."""
        st = self.tracer.stats

        def calls(name):
            return st[name].calls

        def total(*names):
            return sum(st[n].total for n in names)

        def self_s(*names):
            return sum(st[n].self_time for n in names)

        def layer_self(layer):
            return sum(s.self_time for n, s in st.items() if layer_of(n) == layer)

        def ratio(hits, attempts):
            return hits / attempts if attempts else 0.0

        factor_calls = calls("fq.factor")
        factor_growth = len(self.package.fq._factor_cache) - self._factor_cache_start
        pl_hits, pl_misses = self._cache("mds.pl_center_value")
        return {
            "fq.self_s": (layer_self("fq"), "s"),
            "fq.pmul.calls": (calls("fq.pmul"), "count"),
            "fq.pmod.calls": (calls("fq.pmod"), "count"),
            "fq.factor.calls": (factor_calls, "count"),
            "fq.factor.hit_ratio": (ratio(factor_calls - factor_growth, factor_calls), "1"),
            "fq.kronecker.calls": (calls("fq.kronecker"), "count"),
            "fq.enumerate_monic.items": (st["fq.enumerate_monic"].items, "count"),
            "lseries.self_s": (layer_self("lseries"), "s"),
            "lseries.l_polynomial.calls": (calls("lseries.l_polynomial"), "count"),
            "lseries.l_polynomial.self_s": (self_s("lseries.l_polynomial"), "s"),
            "lseries.coeff_sums.self_s": (self_s("lseries.coeff_sums"), "s"),
            "lseries.central_value.self_s": (
                self_s("lseries.central_value", "lseries.LPolynomial.central_value"), "s"),
            "rings.quad.self_s": (layer_self("rings.quad"), "s"),
            "rings.quad.mul.calls": (calls("rings.QuadValue.__mul__"), "count"),
            "rings.quad.pow.calls": (calls("rings.QuadValue.__pow__"), "count"),
            "rings.quartic.self_s": (layer_self("rings.quartic"), "s"),
            "rings.quartic.mul.calls": (calls("rings.QuarticValue.__mul__"), "count"),
            "rings.quartic.add.calls": (calls("rings.QuarticValue.__add__"), "count"),
            "rings.series.self_s": (layer_self("rings.series"), "s"),
            "d4.expansion_s": (total("d4.f_series_capped"), "s"),
            "d4.p_poly.misses": (self._cache("d4.p_poly")[1], "count"),
            "d4.q_poly.misses": (self._cache("d4.q_poly")[1], "count"),
            "d4.self_s": (layer_self("d4"), "s"),
            "mds.route_vers0_s": (total("mds.zc_buckets_vers0"), "s"),
            "mds.route_vers1_s": (total("mds.zc_buckets_vers1"), "s"),
            "mds.route_vers2_s": (total("mds.zc_buckets_vers2"), "s"),
            "mds.buckets": (self.buckets, "count"),
            "mds.sieve_s": (total("mds.check_sieve_identity"), "s"),
            "mds.decomposition_s": (total("mds.check_fundamental_decomposition"), "s"),
            "mds.sieved_t4_s": (total("mds.sieved_t4_series"), "s"),
            "mds.pd_value.calls": (calls("mds.pd_value"), "count"),
            "mds.pl_center_value.hit_ratio": (ratio(pl_hits, pl_hits + pl_misses), "1"),
            "mds.residue_of_sieved.calls": (calls("mds.residue_of_sieved"), "count"),
            "mds.residue_of_sieved.self_s": (self_s("mds.residue_of_sieved"), "s"),
            "mds.self_s": (layer_self("mds"), "s"),
            "moments.moment_sum_s": (total("moments.moment_sum"), "s"),
            "moments.conductors": (self.conductors, "count"),
            "moments.sieve_check_s": (total("moments.sieve_reconstructed_moment"), "s"),
            "moments.cache_io_s": (total("moments.store_moment", "moments.load_moment"), "s"),
            "cli.report_s": (total("cli.Report.add", "cli.Report.finish"), "s"),
        }

    def call_counts(self):
        """Per wrapped function: its code identity and the number of frames
        cProfile would count for it (lru_cache hits run no frame; every
        item a generator yields is one more resumption)."""
        out = {}
        for name, stat in self.tracer.stats.items():
            if stat.cached:
                n = self._cache(name)[1]
            else:
                n = stat.calls + stat.items
            out[name] = {"code": list(stat.code), "ncalls": n}
        return out
