"""Exact-arithmetic engine for group-equivariant Lie bialgebras.

Everything is computed over the rationals with hard truncation degrees, so
every identity in the pipeline is checked as residual == 0, never "small".
Each name is imported from the module that defines it, as in
`from gammastack.stack import verify_stack`.
"""
