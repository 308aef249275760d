"""Reporting: ASCII tables/figures, paper reference values, exhibits.

Every table and figure of the paper's evaluation section can be
regenerated through :mod:`repro.report.exhibits`; the renderers in
:mod:`repro.report.tables` and :mod:`repro.report.figures` print them the
way the paper lays them out, side by side with the paper's published
numbers (:mod:`repro.report.paper`).
"""
