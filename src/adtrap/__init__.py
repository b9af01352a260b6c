"""Profile-targeted display advertising simulator and the side channel it leaks.

The package models the full loop: page topics feed per-cookie profiles,
profiles qualify affinity audiences, campaigns bid for slots, and the ad
platform hands advertisers windowed per-audience impression counters.
:mod:`adtrap.trap` then shows how an advertiser who also owns a website can
correlate those counters with her visit log and recover individual
visitors' audiences.
"""
