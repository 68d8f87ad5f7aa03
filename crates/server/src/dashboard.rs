//! The served ops dashboard: one self-contained HTML page, zero
//! external assets. Inline JS polls `/metrics/history` and `/alerts`
//! and redraws canvas sparklines; nothing is fetched from outside the
//! server itself, so the page works on an air-gapped bench host.

/// The `/dashboard` page.
pub const DASHBOARD_HTML: &str = r##"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>cpssec ops</title>
<style>
  body { font: 13px/1.45 ui-monospace, SFMono-Regular, Menlo, monospace;
         margin: 0; background: #101418; color: #cfd8dc; }
  header { padding: 10px 16px; background: #161c22; display: flex;
           gap: 16px; align-items: baseline; border-bottom: 1px solid #263238; }
  header h1 { font-size: 15px; margin: 0; color: #eceff1; }
  header .muted, .muted { color: #78909c; }
  #alerts.firing { color: #ff5252; font-weight: bold; }
  #alerts.ok { color: #69f0ae; }
  main { display: grid; grid-template-columns: repeat(auto-fill, minmax(340px, 1fr));
         gap: 12px; padding: 12px 16px; }
  section { background: #161c22; border: 1px solid #263238; border-radius: 6px;
            padding: 10px 12px; }
  section h2 { font-size: 12px; margin: 0 0 6px; color: #90a4ae;
               font-weight: normal; text-transform: uppercase; letter-spacing: .06em; }
  canvas { width: 100%; height: 64px; display: block; }
  .stat { font-size: 22px; color: #eceff1; }
  table { width: 100%; border-collapse: collapse; font-size: 12px; }
  td, th { text-align: left; padding: 2px 6px 2px 0; white-space: nowrap; }
  td.num { text-align: right; }
  #slowfeed td { border-top: 1px solid #1d262e; }
  a { color: #4fc3f7; }
</style>
</head>
<body>
<header>
  <h1>cpssec ops</h1>
  <span id="alerts" class="ok">alerts: …</span>
  <span class="muted">res <select id="res">
    <option value="1s">1s</option><option value="10s">10s</option>
    <option value="1m">1m</option></select></span>
  <span class="muted" id="updated"></span>
  <span class="muted"><a href="/metrics">/metrics</a>
    <a href="/metrics/history">/metrics/history</a>
    <a href="/alerts">/alerts</a>
    <a href="/debug/slow">/debug/slow</a></span>
</header>
<main>
  <section><h2>cache hit rate (responses)</h2>
    <div class="stat" id="hitstat">–</div>
    <canvas id="hitrate"></canvas></section>
  <section><h2>worker pool saturation</h2>
    <div class="stat" id="poolstat">–</div>
    <canvas id="pool"></canvas></section>
  <section><h2>slow queries / tick</h2>
    <div class="stat" id="slowstat">–</div>
    <canvas id="slow"></canvas></section>
  <section><h2>corpus (records · deltas · compactions)</h2>
    <div class="stat" id="corpusstat">–</div>
    <canvas id="corpus"></canvas></section>
  <section><h2>admission (conns open · sheds)</h2>
    <div class="stat" id="admstat">–</div>
    <canvas id="adm"></canvas>
    <table id="queues"><tbody></tbody></table></section>
  <section><h2>fleet workers active</h2>
    <div class="stat" id="fleetstat">–</div>
    <canvas id="fleet"></canvas></section>
  <section style="grid-column: 1 / -1"><h2>slow query feed</h2>
    <table id="slowfeed"><thead><tr><th>route</th><th class="num">total µs</th>
      <th>trace</th><th>stages</th></tr></thead><tbody></tbody></table></section>
</main>
<div id="routes" style="display: contents"></div>
<script>
"use strict";
const $ = id => document.getElementById(id);
const routeCards = new Map();

function spark(canvas, bands, max) {
  const dpr = window.devicePixelRatio || 1;
  const w = canvas.clientWidth, h = canvas.clientHeight;
  if (!w || !h) return;
  canvas.width = w * dpr; canvas.height = h * dpr;
  const ctx = canvas.getContext("2d");
  ctx.scale(dpr, dpr);
  ctx.clearRect(0, 0, w, h);
  const pts = bands.flatMap(b => b.points);
  if (!pts.length) return;
  const t0 = Math.min(...pts.map(p => p[0]));
  const t1 = Math.max(...pts.map(p => p[0]));
  const vmax = max !== undefined ? max : Math.max(1e-9, ...pts.map(p => p[1]));
  const x = t => t1 === t0 ? w / 2 : (t - t0) / (t1 - t0) * (w - 4) + 2;
  const y = v => h - 3 - Math.min(1, v / vmax) * (h - 8);
  for (const band of bands) {
    ctx.beginPath();
    band.points.forEach((p, i) => ctx[i ? "lineTo" : "moveTo"](x(p[0]), y(p[1])));
    ctx.strokeStyle = band.color; ctx.lineWidth = 1.5; ctx.stroke();
  }
}

function routeCard(route) {
  if (routeCards.has(route)) return routeCards.get(route);
  const sec = document.createElement("section");
  sec.innerHTML = "<h2></h2><div class='stat'></div><canvas></canvas>" +
    "<div class='muted'><span style='color:#4fc3f7'>p50</span> / " +
    "<span style='color:#ffb74d'>p99</span> µs · req/s</div>";
  sec.querySelector("h2").textContent = route;
  document.querySelector("main").appendChild(sec);
  const card = { stat: sec.querySelector(".stat"), canvas: sec.querySelector("canvas") };
  routeCards.set(route, card);
  return card;
}

const last = pts => pts.length ? pts[pts.length - 1][1] : null;
const fmt = (v, d) => v === null ? "–" : v.toFixed(d === undefined ? 0 : d);

async function refresh() {
  const res = $("res").value;
  const names = (await (await fetch("/metrics/history")).json()).series;
  const q = names.map(encodeURIComponent).join(",");
  const hist = await (await fetch(`/metrics/history?series=${q}&res=${res}`)).json();
  const s = hist.series;
  const routes = [...new Set(names.filter(n => n.startsWith("route:"))
    .map(n => n.slice(6, n.lastIndexOf(":"))))];
  for (const route of routes) {
    const card = routeCard(route);
    const p50 = s[`route:${route}:p50_us`] || [], p99 = s[`route:${route}:p99_us`] || [];
    const rate = s[`route:${route}:rate`] || [];
    card.stat.textContent =
      `${fmt(last(p50))} / ${fmt(last(p99))} µs · ${fmt(last(rate), 1)} req/s`;
    spark(card.canvas, [
      { points: p99, color: "#ffb74d" }, { points: p50, color: "#4fc3f7" }]);
  }
  const hit = s["cache:responses:hit_rate"] || [];
  $("hitstat").textContent = last(hit) === null ? "–"
    : (last(hit) * 100).toFixed(1) + "%";
  spark($("hitrate"), [{ points: hit, color: "#69f0ae" }], 1);
  const util = s["pool:utilization"] || [], queued = s["pool:queued"] || [];
  $("poolstat").textContent = last(util) === null ? "–"
    : (last(util) * 100).toFixed(0) + "% busy, " + fmt(last(queued)) + " queued";
  spark($("pool"), [{ points: util, color: "#ce93d8" }], 1);
  const slow = s["slow:observed"] || [];
  $("slowstat").textContent = fmt(last(slow));
  spark($("slow"), [{ points: slow, color: "#ff8a65" }]);
  const conns = s["serving:connections_open"] || [];
  const sheds = s["serving:shed_total"] || [];
  $("admstat").textContent =
    `${fmt(last(conns))} conns · ${fmt(last(sheds))} shed`;
  spark($("adm"), [
    { points: conns, color: "#4dd0e1" }, { points: sheds, color: "#ff5252" }]);
  const qbody = document.querySelector("#queues tbody");
  qbody.innerHTML = "";
  for (const n of names.filter(n => n.startsWith("serving:queue_depth:"))) {
    const tr = document.createElement("tr");
    tr.innerHTML = `<td></td><td class="num"></td>`;
    tr.children[0].textContent = n.slice("serving:queue_depth:".length);
    tr.children[1].textContent = fmt(last(s[n] || []));
    qbody.appendChild(tr);
  }
  const fleetw = s["fleet:workers_active"] || [];
  $("fleetstat").textContent = fmt(last(fleetw));
  spark($("fleet"), [{ points: fleetw, color: "#aed581" }]);
  const recs = s["corpus:records"] || [], applies = s["corpus:delta_applies"] || [];
  const compactions = s["corpus:compactions"] || [];
  $("corpusstat").textContent = last(recs) === null ? "–"
    : `${fmt(last(recs))} · ${fmt(last(applies))} · ${fmt(last(compactions))}`;
  spark($("corpus"), [{ points: recs, color: "#fff176" }]);

  const alerts = await (await fetch("/alerts")).json();
  const el = $("alerts");
  el.className = alerts.firing ? "firing" : "ok";
  el.textContent = alerts.firing
    ? "alerts: FIRING " + alerts.alerts.filter(a => a.state === "firing")
        .map(a => a.route).join(", ")
    : "alerts: ok (" + alerts.alerts.length + " SLOs)";

  const slowEntries = (await (await fetch("/debug/slow")).json()).entries || [];
  const body = document.querySelector("#slowfeed tbody");
  body.innerHTML = "";
  // /debug/slow lists newest last; the feed shows the newest 12 first.
  for (const e of slowEntries.slice(-12).reverse()) {
    const tr = document.createElement("tr");
    const link = e.trace_id
      ? `<a href="/debug/requests/${e.trace_id}">${e.trace_id.slice(0, 12)}…</a>` : "–";
    tr.innerHTML = `<td></td><td class="num">${e.total_us}</td><td>${link}</td><td></td>`;
    tr.children[0].textContent = e.route;
    tr.children[3].textContent =
      (e.stages || []).map(s => `${s.stage}:${s.us}`).join(" ");
    body.appendChild(tr);
  }
  $("updated").textContent = "updated " + new Date().toLocaleTimeString();
}

async function loop() {
  try { await refresh(); } catch (e) { $("updated").textContent = "error: " + e; }
  setTimeout(loop, 1000);
}
loop();
</script>
</body>
</html>
"##;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_is_self_contained_and_references_live_endpoints() {
        assert!(DASHBOARD_HTML.starts_with("<!DOCTYPE html>"));
        for endpoint in ["/metrics/history", "/alerts", "/debug/slow"] {
            assert!(DASHBOARD_HTML.contains(endpoint), "missing {endpoint}");
        }
        // The PR 9 admission gauges are drawn, not scrape-only.
        for series in [
            "serving:connections_open",
            "serving:shed_total",
            "serving:queue_depth:",
            "fleet:workers_active",
        ] {
            assert!(DASHBOARD_HTML.contains(series), "missing {series}");
        }
        // The slow feed reads /debug/slow (newest last) from its end.
        assert!(DASHBOARD_HTML.contains("slowEntries.slice(-12).reverse()"));
        // Self-contained: no external scripts, stylesheets, or images.
        assert!(!DASHBOARD_HTML.contains("src=\"http"));
        assert!(!DASHBOARD_HTML.contains("href=\"http"));
        assert!(!DASHBOARD_HTML.contains("@import"));
    }
}
